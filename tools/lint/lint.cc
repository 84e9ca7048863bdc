#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

namespace relcomp {
namespace lint {
namespace {

namespace fs = std::filesystem;

/// A waiver comment: suppresses findings for `rule` at its own line and
/// the line below (so the comment can sit above the offending statement).
struct Waiver {
  std::string file;
  int line;
  std::string rule;
};

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

std::string ReadFileOrEmpty(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Extracts every LINT:waive(rule[, reason]) marker from a comment token.
void ParseWaivers(const std::string& file, const Token& comment,
                  std::vector<Waiver>* out) {
  static const std::string kMarker = "LINT:waive(";
  size_t pos = 0;
  while ((pos = comment.text.find(kMarker, pos)) != std::string::npos) {
    pos += kMarker.size();
    const size_t end = comment.text.find_first_of(",)", pos);
    if (end == std::string::npos) break;
    std::string rule = comment.text.substr(pos, end - pos);
    // trim
    const size_t b = rule.find_first_not_of(" \t");
    const size_t e = rule.find_last_not_of(" \t");
    if (b != std::string::npos) rule = rule.substr(b, e - b + 1);
    if (!rule.empty()) out->push_back(Waiver{file, comment.line, rule});
    pos = end;
  }
}

bool IsAccessSpecifier(const Token& t) {
  return t.IsIdent("public") || t.IsIdent("protected") ||
         t.IsIdent("private");
}

/// Whether `toks[i]` names a constructor member initializer, as `adom_` in
/// `: adom_(adom), q_(q) {`: its name follows the initializer list's ':'
/// or a ','. A ':' after an access specifier (`public: Foo(...) {`) starts
/// a declaration instead.
bool IsMemberInitializer(const std::vector<Token>& toks, size_t i) {
  if (i == 0) return false;
  const Token& prev = toks[i - 1];
  if (prev.IsPunct(",")) return true;
  return prev.IsPunct(":") && !(i >= 2 && IsAccessSpecifier(toks[i - 2]));
}

bool IsControlKeyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "do" || s == "sizeof" ||
         s == "else" || s == "case" || s == "new" || s == "delete" ||
         s == "throw" || s == "alignof" || s == "decltype" ||
         s == "static_assert" || s == "defined";
}

}  // namespace

size_t MatchForward(const std::vector<Token>& toks, size_t open_idx) {
  if (open_idx >= toks.size() || toks[open_idx].kind != Token::Kind::kPunct) {
    return std::string::npos;
  }
  const std::string& open = toks[open_idx].text;
  std::string close;
  if (open == "(") {
    close = ")";
  } else if (open == "{") {
    close = "}";
  } else if (open == "[") {
    close = "]";
  } else {
    return std::string::npos;
  }
  int depth = 0;
  for (size_t i = open_idx; i < toks.size(); ++i) {
    if (toks[i].IsPunct(open.c_str())) ++depth;
    if (toks[i].IsPunct(close.c_str()) && --depth == 0) return i;
  }
  return std::string::npos;
}

std::vector<FunctionDef> FindFunctions(const std::vector<Token>& toks) {
  std::vector<FunctionDef> out;
  const size_t n = toks.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        IsControlKeyword(toks[i].text) || !toks[i + 1].IsPunct("(") ||
        IsMemberInitializer(toks, i)) {
      continue;
    }
    const size_t close = MatchForward(toks, i + 1);
    if (close == std::string::npos) continue;
    // Walk the header cruft after the parameter list — const, noexcept,
    // trailing return, constructor initializers — until the body '{' or
    // something that proves this is a declaration or expression.
    size_t j = close + 1;
    size_t body_open = std::string::npos;
    while (j < n) {
      const Token& t = toks[j];
      if (t.IsPunct("{")) {
        body_open = j;
        break;
      }
      if (t.IsPunct(";") || t.IsPunct("=") || t.IsPunct(")") ||
          t.IsPunct("}") || t.IsPunct(".")) {
        break;
      }
      if (t.IsPunct("(")) {  // initializer arguments, noexcept(...)
        const size_t sub = MatchForward(toks, j);
        if (sub == std::string::npos) break;
        j = sub + 1;
        continue;
      }
      if (t.kind == Token::Kind::kIdent || t.kind == Token::Kind::kNumber ||
          t.IsPunct("::") || t.IsPunct(":") || t.IsPunct(",") ||
          t.IsPunct("->") || t.IsPunct("&") || t.IsPunct("*") ||
          t.IsPunct("<") || t.IsPunct(">") || t.IsPunct("[") ||
          t.IsPunct("]")) {
        ++j;
        continue;
      }
      break;
    }
    if (body_open == std::string::npos) continue;
    const size_t body_close = MatchForward(toks, body_open);
    if (body_close == std::string::npos) continue;
    out.push_back(FunctionDef{toks[i].text, body_open + 1, body_close});
    // Keep scanning from inside the body so class-inline methods and
    // nested definitions are found too.
  }
  return out;
}

const std::vector<Rule>& AllRules() {
  static const std::vector<Rule> kRules = {
      {"checkpoint-coverage",
       "core search loops must poll a SearchCheckpoint or be waived",
       CheckpointCoverageRule},
      {"lock-rank-sync",
       "LockRank enum, Mutex construction sites, README table, and "
       "statically visible MutexLock nesting must agree",
       LockRankSyncRule},
      {"metric-registry",
       "relcomp_* metric names live only in src/obs/metric_names.h and "
       "match the README metric table",
       MetricRegistryRule},
      {"banned-constructs",
       "no raw std synchronization/threads/rand/sleep outside src/util/; "
       "headers carry include guards",
       BannedConstructsRule},
  };
  return kRules;
}

std::vector<Finding> RunLint(const Options& opts, std::string* error) {
  std::vector<Finding> findings;
  const fs::path root(opts.root);
  std::error_code ec;
  const bool has_src = fs::is_directory(root / "src", ec);
  const bool has_tools = fs::is_directory(root / "tools", ec);
  if (!has_src && !has_tools) {
    if (error != nullptr) {
      *error = "no src/ or tools/ directory under root '" + opts.root + "'";
    }
    return findings;
  }

  Tree tree;
  tree.root = opts.root;
  std::vector<Waiver> waivers;
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "tools"}) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(base, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file(ec) && HasLintableExtension(it->path())) {
        paths.push_back(it->path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    SourceFile file;
    file.rel_path = fs::relative(p, root, ec).generic_string();
    file.tokens = LexCpp(ReadFileOrEmpty(p));
    // Pull waivers out of the comments, then drop the comments so no rule
    // ever takes evidence (e.g. a polling-function name) from prose.
    std::vector<Token> kept;
    kept.reserve(file.tokens.size());
    for (Token& t : file.tokens) {
      if (t.kind == Token::Kind::kComment) {
        ParseWaivers(file.rel_path, t, &waivers);
      } else {
        kept.push_back(std::move(t));
      }
    }
    file.tokens = std::move(kept);
    tree.files.push_back(std::move(file));
  }

  const std::string readme = ReadFileOrEmpty(root / "README.md");
  if (!readme.empty()) {
    std::istringstream in(readme);
    std::string ln;
    while (std::getline(in, ln)) tree.readme_lines.push_back(ln);
  }

  for (const Rule& rule : AllRules()) {
    if (!opts.rules.empty() &&
        std::find(opts.rules.begin(), opts.rules.end(), rule.id) ==
            opts.rules.end()) {
      continue;
    }
    rule.fn(tree, &findings);
  }

  // Drop waived findings, then sort and dedup (overlapping heuristics may
  // report one site twice).
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    bool waived = false;
    for (const Waiver& w : waivers) {
      if (w.rule == f.rule && w.file == f.file &&
          (w.line == f.line || w.line + 1 == f.line)) {
        waived = true;
        break;
      }
    }
    if (!waived) kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.rule == b.rule && a.message == b.message;
                         }),
             kept.end());
  return kept;
}

std::string FormatFinding(const Finding& f) {
  std::ostringstream out;
  out << f.file << ":" << f.line << ": error: [" << f.rule << "] "
      << f.message;
  return out.str();
}

}  // namespace lint
}  // namespace relcomp
