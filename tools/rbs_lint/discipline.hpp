// The call-graph discipline walker shared by rbs_rt (rt.hpp) and rbs_det
// (det.hpp).
//
// A discipline is a set of token rules that must hold in every function
// reachable from its annotated roots. The walker merges every lexed + indexed
// translation unit into one project-wide function table -- lint_paths hands
// it every unit, headers included -- and walks the call graph from the roots,
// handing each reached body to the discipline token by token. It owns
// everything the disciplines share:
//
//   * Annotations are honored at definition sites and at declaration sites
//     (`void step() RBS_HOT_PATH;` in a class body), matched by (class, name).
//   * The safe leaf (RBS_RT_SAFE / RBS_DET_SAFE) and the justified escape
//     (RBS_RT_ESCAPE(reason) / RBS_DET_ESCAPE(reason)) stop the walk at that
//     function: it is neither scanned nor descended into.
//   * An escape with no reason is reported under the discipline's escape
//     rule and ignored (the body is walked like ordinary code), so a missing
//     reason can never silently widen the audited surface. A reason-less
//     escape on a declaration that matches no (class, name) definition is
//     reported at the declaration.
//   * `// rbs-lint: allow(rule)` comments silence a finding on their own line
//     and the next; rule enabling and baselines stay the caller's business.
//   * Diagnostics come back sorted by (file, line, rule, message).
//
// Call resolution is name-based and conservative, sharing the signal-safety
// rule's philosophy: `X::f()` resolves to members of X; member calls
// (`x.f()`, `x->f()`) descend into every indexed member function of that
// name; unqualified calls prefer a same-class member, then free functions.
// Unresolved callees (std internals, function pointers, std::function
// targets) are skipped -- the documented fallback, see
// docs/static-analysis.md "Discipline walker".
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rbs_lint/lint.hpp"
#include "rbs_lint/semantic.hpp"
#include "rbs_lint/token.hpp"

namespace rbs::lint {

/// One lexed + indexed translation unit handed to a project-wide pass.
/// The pointees must outlive the pass.
struct RtUnit {
  std::string path;
  const Lexed* lexed = nullptr;
  const FileIndex* index = nullptr;
};

/// The annotations one discipline reads off a definition or declaration.
struct DisciplineFlags {
  bool root = false;               ///< starts the walk
  bool safe = false;               ///< audited leaf
  bool escape = false;             ///< justified exception
  bool escape_has_reason = false;  ///< the escape carried a non-empty reason
};

/// The fixed part of a discipline: where its flags live and its wording.
struct Discipline {
  DisciplineFlags (*function_flags)(const FunctionInfo&);
  DisciplineFlags (*decl_flags)(const RtDecl&);
  const char* escape_macro;    ///< "RBS_RT_ESCAPE"
  const char* escape_example;  ///< reason shown in the missing-reason finding
  const char* escape_rule;     ///< rule the missing-reason finding is filed under
  const char* root_kind;       ///< "hot path": "reachable from hot path `f`"
};

/// Keywords followed by '(' that are not calls; shared with signal-safety.
const std::set<std::string>& control_keywords();

/// True when the token at `i` follows `.` or `->` (a member access).
bool after_member_access(const std::vector<Token>& t, std::size_t i);

/// The reachability walk. A discipline derives from it and supplies its
/// token rules; run() is the whole pass.
class DisciplineWalker {
 public:
  DisciplineWalker(const std::vector<RtUnit>& units, const Discipline& discipline);
  virtual ~DisciplineWalker() = default;

  /// Walks from every root, runs finish(), and returns the sorted findings.
  std::vector<Diagnostic> run();

 protected:
  /// One reached function body.
  struct Body {
    const std::vector<Token>& tokens;
    const FunctionInfo& fn;
    std::size_t unit;
    std::string where;  ///< "`f`, reachable from hot path `root`"
  };

  /// A call the cycle check can trust: unqualified, `X::f` or `this->f`.
  /// A member call through another receiver (`x.size()`) fans out to every
  /// same-name member, so it is descended but recorded no edge.
  struct CallEdge {
    std::size_t to = 0;
    int line = 0;
    std::string callee;  ///< name as written at the call site
  };

  /// Called once per reached body before its tokens.
  virtual void begin_body(const Body&) {}
  /// Called for every body token; true consumes it (no call handling).
  virtual bool on_token(const Body& body, std::size_t i) = 0;
  /// Called at each call site `tokens[i](`; true consumes it (no descent).
  virtual bool on_call(const Body& body, std::size_t i, bool member) = 0;
  /// Called once after the walk.
  virtual void finish() {}

  void report(std::size_t unit, const std::string& rule, int line, std::string message);

  std::size_t function_count() const { return ids_.size(); }
  const FunctionInfo& fn(std::size_t g) const {
    return units_[ids_[g].unit].index->functions[ids_[g].index];
  }
  std::size_t unit_of(std::size_t g) const { return ids_[g].unit; }
  /// Root that reached `g` first; SIZE_MAX when unreached.
  std::size_t root_of(std::size_t g) const { return root_of_[g]; }
  const std::map<std::size_t, std::vector<CallEdge>>& edges() const { return edges_; }

 private:
  /// One function in the merged project-wide table.
  struct FnId {
    std::size_t unit = 0;
    std::size_t index = 0;  ///< into units[unit].index->functions
  };

  void report_missing_reason(std::size_t unit, const std::string& name, int line);
  bool shielded(std::size_t g) const { return flags_[g].safe || flags_[g].escape; }
  void resolve(const std::string& name, bool member, const std::string& qualifier,
               const std::string& caller_class, std::vector<std::size_t>* out) const;
  void scan_body(std::size_t g, std::vector<std::size_t>* queue,
                 std::vector<std::size_t>* callees);

  const std::vector<RtUnit>& units_;
  const Discipline discipline_;
  std::vector<FnId> ids_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
  std::vector<DisciplineFlags> flags_;
  std::vector<std::map<int, std::set<std::string>>> suppressions_;
  std::vector<std::size_t> root_of_;
  std::map<std::size_t, std::vector<CallEdge>> edges_;
  std::vector<Diagnostic> diags_;
};

}  // namespace rbs::lint
