#include "rbs_lint/rt.hpp"

#include <cstdint>
#include <set>
#include <utility>

namespace rbs::lint {

namespace {

// Mutex/condvar/thread operations: any member call with one of these names
// blocks (or unblocks someone else) by design.
const std::set<std::string>& blocking_members() {
  static const std::set<std::string> k = {
      "lock",        "unlock",        "try_lock",    "try_lock_for", "try_lock_until",
      "lock_shared", "unlock_shared", "wait",        "wait_for",     "wait_until",
      "notify_one",  "notify_all",    "join",        "detach",       "flush",
      "open",        "close"};
  return k;
}

// Blocking free calls: stdio, POSIX I/O, sleeps.
const std::set<std::string>& blocking_calls() {
  static const std::set<std::string> k = {
      "fopen",  "fclose",   "fread",  "fwrite",    "fputs",      "fgets",  "fprintf",
      "printf", "vfprintf", "fscanf", "scanf",     "fflush",     "fsync",  "fdatasync",
      "sleep",  "usleep",   "nanosleep", "sleep_for", "sleep_until", "yield", "system",
      "getline", "getchar", "putchar", "puts",     "perror"};
  return k;
}

// Stream globals: touching one means (buffered, locking) I/O.
const std::set<std::string>& stream_idents() {
  static const std::set<std::string> k = {"cout", "cerr", "cin", "clog", "wcout", "wcerr"};
  return k;
}

// Allocating free calls.
const std::set<std::string>& alloc_calls() {
  static const std::set<std::string> k = {
      "malloc",      "calloc",     "realloc",        "free",        "strdup",
      "strndup",     "aligned_alloc", "posix_memalign", "make_unique", "make_shared",
      "to_string"};
  return k;
}

// Types whose construction allocates (or may allocate on first growth --
// the construction itself is the thing to hoist out of the hot tree).
const std::set<std::string>& alloc_types() {
  static const std::set<std::string> k = {
      "vector",        "deque",         "list",          "forward_list", "map",
      "multimap",      "unordered_map", "set",           "multiset",     "unordered_set",
      "string",        "basic_string",  "wstring",       "function",     "stringstream",
      "ostringstream", "istringstream", "priority_queue", "queue",       "stack"};
  return k;
}

// RAII guards and file streams: construction locks / opens.
const std::set<std::string>& guard_types() {
  static const std::set<std::string> k = {"lock_guard", "unique_lock", "scoped_lock",
                                          "shared_lock", "LockGuard",  "UniqueLock",
                                          "ifstream",    "ofstream",   "fstream"};
  return k;
}

DisciplineFlags rt_flags(const FunctionInfo& f) {
  return {f.hot_path, f.rt_safe, f.rt_escape, f.rt_escape_has_reason};
}
DisciplineFlags rt_flags(const RtDecl& d) {
  return {d.hot_path, d.rt_safe, d.rt_escape, d.rt_escape_has_reason};
}

const Discipline kRt = {rt_flags, rt_flags, "RBS_RT_ESCAPE", "cold_error_path_runs_once",
                        kRuleRtUnbounded, "hot path"};

/// True when the identifier at `i` begins a construction of a type in
/// `types`: `T v`, `T<...> v`, `T(...)`, `T{...}` -- but not `T&`, `T*`,
/// `T::nested`, or a member access `.T`.
bool constructs_type(const std::vector<Token>& t, std::size_t i,
                     const std::set<std::string>& types) {
  if (t[i].kind != TokKind::kIdent || types.count(t[i].text) == 0) return false;
  if (after_member_access(t, i)) return false;
  std::size_t j = i + 1;
  if (j < t.size() && is_punct(t[j], "<")) j = skip_group(t, j, "<", ">");
  if (j >= t.size()) return false;
  if (is_punct(t[j], "&") || is_punct(t[j], "&&") || is_punct(t[j], "*") ||
      is_punct(t[j], "::"))
    return false;
  return t[j].kind == TokKind::kIdent || is_punct(t[j], "(") || is_punct(t[j], "{");
}

class RtPass : public DisciplineWalker {
 public:
  explicit RtPass(const std::vector<RtUnit>& units) : DisciplineWalker(units, kRt) {}

 private:
  bool on_token(const Body& body, std::size_t i) override {
    const std::vector<Token>& t = body.tokens;
    const Token& tok = t[i];
    if (tok.kind != TokKind::kIdent) return false;
    if (tok.text == "throw") {
      report(body.unit, kRuleRtUnbounded, tok.line,
             "`throw` in " + body.where + "; hot paths must not unwind "
             "(return a Status/Expected instead)");
      return true;
    }
    if (tok.text == "new" || tok.text == "delete") {
      if (tok.text == "delete" && i > 0 && is_punct(t[i - 1], "=")) return true;
      report(body.unit, kRuleRtAlloc, tok.line,
             "`" + tok.text + "` in " + body.where +
                 "; hot paths must not touch the heap");
      return true;
    }
    if (stream_idents().count(tok.text) > 0) {
      report(body.unit, kRuleRtBlock, tok.line,
             "stream `" + tok.text + "` in " + body.where +
                 "; hot paths must not perform I/O");
      return true;
    }
    if (constructs_type(t, i, guard_types())) {
      report(body.unit, kRuleRtBlock, tok.line,
             "constructs `" + tok.text + "` in " + body.where +
                 "; hot paths must not lock or open files");
      return true;
    }
    if (constructs_type(t, i, alloc_types())) {
      report(body.unit, kRuleRtAlloc, tok.line,
             "constructs `" + tok.text + "` in " + body.where +
                 "; hoist it into a reusable scratch buffer "
                 "(growth of pre-sized containers is fine)");
      return true;
    }
    return false;
  }

  bool on_call(const Body& body, std::size_t i, bool member) override {
    const Token& tok = body.tokens[i];
    if (member && blocking_members().count(tok.text) > 0) {
      report(body.unit, kRuleRtBlock, tok.line,
             "member call `." + tok.text + "()` in " + body.where +
                 "; hot paths must not block");
      return true;
    }
    if (!member && alloc_calls().count(tok.text) > 0) {
      report(body.unit, kRuleRtAlloc, tok.line,
             "call to `" + tok.text + "` in " + body.where +
                 "; hot paths must not touch the heap");
      return true;
    }
    if (!member && blocking_calls().count(tok.text) > 0) {
      report(body.unit, kRuleRtBlock, tok.line,
             "call to `" + tok.text + "` in " + body.where +
                 "; hot paths must not block");
      return true;
    }
    return false;
  }

  /// Any cycle among reached functions means unbounded stack depth. Only
  /// the walker's confident edges count: accessor wrappers like
  /// `std::size_t size() const { return tasks_.size(); }` would otherwise
  /// read as self-recursion.
  void finish() override {
    enum : std::uint8_t { kWhite, kGray, kBlack };
    std::vector<std::uint8_t> color(function_count(), kWhite);
    std::set<std::pair<std::size_t, std::size_t>> reported;

    struct Frame {
      std::size_t g;
      std::size_t next_edge = 0;
    };
    std::vector<Frame> stack;
    for (std::size_t start = 0; start < function_count(); ++start) {
      if (root_of(start) == SIZE_MAX || color[start] != kWhite) continue;
      stack.push_back({start});
      color[start] = kGray;
      while (!stack.empty()) {
        Frame& frame = stack.back();
        auto it = edges().find(frame.g);
        const std::vector<CallEdge>* out = it == edges().end() ? nullptr : &it->second;
        if (out == nullptr || frame.next_edge >= out->size()) {
          color[frame.g] = kBlack;
          stack.pop_back();
          continue;
        }
        const CallEdge& edge = (*out)[frame.next_edge++];
        if (color[edge.to] == kGray) {
          if (reported.emplace(frame.g, edge.to).second)
            report(unit_of(frame.g), kRuleRtUnbounded, edge.line,
                   "call to `" + edge.callee + "` in `" + fn(frame.g).name +
                       "` closes a recursion cycle reachable from hot path `" +
                       fn(root_of(frame.g)).name +
                       "`; stack depth must be statically bounded");
          continue;
        }
        if (color[edge.to] == kWhite) {
          color[edge.to] = kGray;
          stack.push_back({edge.to});
        }
      }
    }
  }
};

}  // namespace

std::vector<Diagnostic> rt_check(const std::vector<RtUnit>& units) {
  return RtPass(units).run();
}

}  // namespace rbs::lint
