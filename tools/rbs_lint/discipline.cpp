#include "rbs_lint/discipline.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace rbs::lint {

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> k = {"if",       "while",   "for",      "switch",
                                          "catch",    "sizeof",  "alignof",  "return",
                                          "decltype", "noexcept", "typeid"};
  return k;
}

bool after_member_access(const std::vector<Token>& t, std::size_t i) {
  return i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
}

DisciplineWalker::DisciplineWalker(const std::vector<RtUnit>& units,
                                   const Discipline& discipline)
    : units_(units), discipline_(discipline) {
  for (std::size_t u = 0; u < units_.size(); ++u) {
    const FileIndex& index = *units_[u].index;
    for (std::size_t f = 0; f < index.functions.size(); ++f) {
      by_name_[index.functions[f].name].push_back(ids_.size());
      ids_.push_back({u, f});
      flags_.push_back(discipline_.function_flags(index.functions[f]));
    }
    suppressions_.push_back(allow_comments(*units_[u].lexed));
  }
  // Declaration-site annotations flow onto the matching definitions
  // (exact (class, name) match; annotate whichever site reads better). A
  // reason-less escape that reaches no definition is reported where it is.
  for (std::size_t u = 0; u < units_.size(); ++u) {
    for (const RtDecl& decl : units_[u].index->rt_decls) {
      const DisciplineFlags d = discipline_.decl_flags(decl);
      bool merged = false;
      auto hit = by_name_.find(decl.name);
      if (hit != by_name_.end()) {
        for (std::size_t g : hit->second) {
          if (fn(g).class_name != decl.class_name) continue;
          merged = true;
          DisciplineFlags& f = flags_[g];
          f.root = f.root || d.root;
          f.safe = f.safe || d.safe;
          if (d.escape) {
            f.escape = true;
            f.escape_has_reason = f.escape_has_reason || d.escape_has_reason;
          }
        }
      }
      if (d.escape && !d.escape_has_reason && !merged)
        report_missing_reason(u, decl.name, decl.line);
    }
  }
  for (std::size_t g = 0; g < ids_.size(); ++g) {
    if (flags_[g].escape && !flags_[g].escape_has_reason) {
      report_missing_reason(ids_[g].unit, fn(g).name, fn(g).line);
      flags_[g].escape = false;
    }
  }
}

void DisciplineWalker::report(std::size_t unit, const std::string& rule, int line,
                              std::string message) {
  const auto& map = suppressions_[unit];
  for (int probe : {line, line - 1}) {
    auto it = map.find(probe);
    if (it != map.end() && it->second.count(rule) > 0) return;
  }
  diags_.push_back({units_[unit].path, line, rule, std::move(message)});
}

void DisciplineWalker::report_missing_reason(std::size_t unit, const std::string& name,
                                             int line) {
  const std::string macro = discipline_.escape_macro;
  report(unit, discipline_.escape_rule, line,
         macro + " on `" + name + "` has no reason; justify it like " + macro + "(" +
             discipline_.escape_example + ") -- annotation ignored");
}

std::vector<Diagnostic> DisciplineWalker::run() {
  root_of_.assign(ids_.size(), SIZE_MAX);
  std::vector<std::size_t> queue;
  for (std::size_t g = 0; g < ids_.size(); ++g)
    if (flags_[g].root) {
      root_of_[g] = g;
      queue.push_back(g);
    }
  std::vector<std::size_t> callees;
  while (!queue.empty()) {
    const std::size_t g = queue.back();
    queue.pop_back();
    if (!shielded(g)) scan_body(g, &queue, &callees);
  }
  finish();
  std::sort(diags_.begin(), diags_.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return std::move(diags_);
}

/// Callee candidates for a call site. `member` is true for `x.f()` /
/// `x->f()`; `qualifier` is X in `X::f()` (empty otherwise);
/// `caller_class` disambiguates unqualified calls.
void DisciplineWalker::resolve(const std::string& name, bool member,
                               const std::string& qualifier,
                               const std::string& caller_class,
                               std::vector<std::size_t>* out) const {
  out->clear();
  auto hit = by_name_.find(name);
  if (hit == by_name_.end()) return;
  const std::vector<std::size_t>& all = hit->second;
  if (!qualifier.empty()) {
    for (std::size_t g : all)
      if (fn(g).class_name == qualifier) out->push_back(g);
    return;
  }
  if (member) {
    // Receiver type is unknown: descend into every member function of that
    // name (free functions cannot be the target of a member call).
    for (std::size_t g : all)
      if (!fn(g).class_name.empty()) out->push_back(g);
    return;
  }
  // Unqualified: an enclosing-class member shadows free functions.
  if (!caller_class.empty()) {
    for (std::size_t g : all)
      if (fn(g).class_name == caller_class) out->push_back(g);
    if (!out->empty()) return;
  }
  for (std::size_t g : all)
    if (fn(g).class_name.empty()) out->push_back(g);
}

void DisciplineWalker::scan_body(std::size_t g, std::vector<std::size_t>* queue,
                                 std::vector<std::size_t>* callees) {
  const FunctionInfo& info = fn(g);
  const Body body{units_[ids_[g].unit].lexed->tokens, info, ids_[g].unit,
                  "`" + info.name + "`, reachable from " + discipline_.root_kind + " `" +
                      fn(root_of_[g]).name + "`"};
  begin_body(body);
  const std::vector<Token>& t = body.tokens;
  for (std::size_t i = info.body_begin + 1; i < info.body_end && i < t.size(); ++i) {
    if (on_token(body, i)) continue;
    const Token& tok = t[i];
    if (tok.kind != TokKind::kIdent || i + 1 >= t.size() || !is_punct(t[i + 1], "("))
      continue;
    if (control_keywords().count(tok.text) > 0) continue;
    const bool member = after_member_access(t, i);
    if (on_call(body, i, member)) continue;
    std::string qualifier;
    if (!member && i >= 2 && is_punct(t[i - 1], "::") && t[i - 2].kind == TokKind::kIdent)
      qualifier = t[i - 2].text;
    resolve(tok.text, member, qualifier, info.class_name, callees);
    const bool confident =
        !member || (i >= 2 && t[i - 2].kind == TokKind::kIdent && t[i - 2].text == "this");
    for (std::size_t callee : *callees) {
      if (shielded(callee)) continue;
      if (confident) edges_[g].push_back({callee, tok.line, tok.text});
      if (root_of_[callee] == SIZE_MAX) {
        root_of_[callee] = root_of_[g];
        queue->push_back(callee);
      }
    }
    // Unresolved callees (std internals, function pointers, std::function
    // targets) are skipped: the documented conservative fallback.
  }
}

}  // namespace rbs::lint
