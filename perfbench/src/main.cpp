// perfbench: runs one workload and prints one JSON line.
//
//   perfbench --workload certify_sweep|multicore_resilience|service_mixed
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//
// The line carries the metrics (end-to-end with --trace 0, per-layer with
// --trace 1), the per-pass work counters, the result digest, and the build
// this binary came from. run.py checks it and prints the benchmark result.
// Exit codes: 0 = ran (correctness is in the JSON), 1 = set-up failed,
// 2 = bad usage or a build that is not Release.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Report;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.15g", value);
  return buffer;
}

void print_report(const perfbench::Options& options, const Report& report) {
  std::string out = "{\"workload\":" + json_string(options.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"trace\":" + std::string(options.trace ? "1" : "0");
  out += ",\"correct\":" + std::string(report.correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"digest\":" + json_string(report.digest);
  const perfbench::Counters& c = report.counters;
  out += ",\"counters\":{\"core.breakpoints\":" + std::to_string(c.core_breakpoints) +
         ",\"multi.analyzer_calls\":" + std::to_string(c.multi_analyzer_calls) +
         ",\"sim.events\":" + std::to_string(c.sim_events) +
         ",\"service.cache_misses\":" + std::to_string(c.service_cache_misses) +
         ",\"campaign.journal_bytes\":" + std::to_string(c.campaign_journal_bytes) + "}";
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, metric] = report.metrics[i];
    if (i) out += ',';
    out += json_string(name) + ":{\"value\":" + json_number(metric.value) +
           ",\"unit\":" + json_string(metric.unit) + "}";
  }
  out += "},\"info\":{";
  for (std::size_t i = 0; i < report.info.size(); ++i) {
    if (i) out += ',';
    out += json_string(report.info[i].first) + ":" + json_string(report.info[i].second);
  }
  out += "},\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i) out += ',';
    out += json_string(report.errors[i]);
  }
  out += "],\"build\":{\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + json_string(__VERSION__) +
         ",\"cxx_flags\":" + json_string(PERFBENCH_CXX_FLAGS) + "}}";
  std::cout << out << std::endl;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--out-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.process_start = perfbench::Clock::now();
#ifndef NDEBUG
  return usage("built without NDEBUG: refusing to measure a non-Release build");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    return usage("built as '" PERFBENCH_BUILD_TYPE "', not Release: refusing to measure");
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = value == "1";
      else if (flag == "--out-dir") options.out_dir = value;
      else return usage(("unknown flag " + flag).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (argc % 2 != 1) return usage("every flag takes one value");
  if (options.out_dir.empty()) return usage("--out-dir is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  Report report;
  try {
    if (options.workload == "certify_sweep") perfbench::run_certify_sweep(options, report);
    else if (options.workload == "multicore_resilience")
      perfbench::run_multicore_resilience(options, report);
    else if (options.workload == "service_mixed") perfbench::run_service_mixed(options, report);
    else return usage(("unknown workload '" + options.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  print_report(options, report);
  return 0;
}
