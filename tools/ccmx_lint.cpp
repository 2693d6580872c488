// ccmx_lint — CLI for the project-invariant static-analysis passes.
//
//   ccmx_lint      [--root DIR] [--subdir D ...] [--list-rules] [--quiet]
//   ccmx_lint arch [--root DIR] [--subdir D ...] [--list-rules] [--quiet]
//
// The bare form runs the per-file lexical rules R1–R7 (lint/lint.hpp);
// `ccmx_lint arch` runs the whole-repo architecture pass A1–A6
// (lint/arch.hpp) — include graph vs the declared layering plus the
// symbol cross-reference — and prints the module table (layer, files,
// fan-out, fan-in, deps) above its findings.  Exit status for both:
// 0 = clean, 1 = findings, 2 = usage or I/O error.  A
// `// ccmx-lint: allow(<rule>)` comment is the only way to silence a
// finding, so CI runs both modes from the repo root with no flags.
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "lint/arch.hpp"
#include "lint/lint.hpp"
#include "util/table.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: ccmx_lint [arch] [options]\n"
        "  arch               run the whole-repo architecture pass (A1-A6)\n"
        "                     instead of the per-file lexical rules (R1-R7)\n"
        "  --root DIR         repo root to lint (default: .)\n"
        "  --subdir D         scan only this subdir; repeatable\n"
        "                     (default: src bench tools tests; arch mode\n"
        "                     adds examples)\n"
        "  --list-rules       print the rule table and exit\n"
        "  --quiet            summary line only (no findings, no module\n"
        "                     table)\n";
}

void print_findings(const std::vector<ccmx::lint::Finding>& findings) {
  for (const ccmx::lint::Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
    if (!f.snippet.empty()) std::cout << "    " << f.snippet << "\n";
  }
}

void print_rules(const std::vector<ccmx::lint::RuleInfo>& rules) {
  for (const ccmx::lint::RuleInfo& rule : rules) {
    std::cout << rule.alias << "  " << rule.name << "\n    " << rule.summary
              << "\n";
  }
}

void print_modules(const std::vector<ccmx::lint::ModuleSummary>& modules) {
  ccmx::util::TextTable table(
      {"module", "layer", "files", "fan-out", "fan-in", "depends on"});
  for (const ccmx::lint::ModuleSummary& m : modules) {
    std::string deps;
    for (const std::string& dep : m.deps) {
      if (!deps.empty()) deps += ", ";
      deps += dep;
    }
    table.row(m.name, m.layer, m.files, m.deps.size(), m.dependents.size(),
              deps.empty() ? "—" : deps);
  }
  table.print(std::cout);
}

struct CommonArgs {
  std::string root = ".";
  std::vector<std::string> subdirs;  // empty = mode default
  bool quiet = false;
  bool list_rules = false;
};

int parse_args(int argc, char** argv, int first, CommonArgs& args) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "ccmx_lint: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      args.root = next();
    } else if (arg == "--subdir") {
      args.subdirs.push_back(next());
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--list-rules") {
      args.list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "ccmx_lint: unknown argument " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    }
  }
  return 0;
}

int run_lexical_mode(const CommonArgs& args) {
  if (args.list_rules) {
    print_rules(ccmx::lint::rules());
    return 0;
  }
  ccmx::lint::RunOptions options;
  options.root = args.root;
  if (!args.subdirs.empty()) options.subdirs = args.subdirs;
  const ccmx::lint::RunResult result = ccmx::lint::run_lint(options);
  if (!args.quiet) print_findings(result.findings);
  std::cout << "ccmx_lint: " << result.files_scanned << " file(s), "
            << result.findings.size() << " finding(s), " << result.suppressed
            << " suppressed\n";
  return result.findings.empty() ? 0 : 1;
}

int run_arch_mode(const CommonArgs& args) {
  if (args.list_rules) {
    print_rules(ccmx::lint::arch_rules());
    return 0;
  }
  ccmx::lint::ArchOptions options;
  options.root = args.root;
  if (!args.subdirs.empty()) options.subdirs = args.subdirs;
  const ccmx::lint::ArchResult result = ccmx::lint::run_arch(options);
  if (!args.quiet) {
    print_modules(result.modules);
    print_findings(result.findings);
  }
  std::cout << "ccmx_lint arch: " << result.files_scanned << " file(s), "
            << result.include_edges << " include edge(s), "
            << result.modules.size() << " module(s), "
            << result.findings.size() << " finding(s), " << result.suppressed
            << " suppressed\n";
  return result.findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool arch_mode =
      argc > 1 && std::strcmp(argv[1], "arch") == 0;
  CommonArgs args;
  const int parse_rc = parse_args(argc, argv, arch_mode ? 2 : 1, args);
  if (parse_rc != 0) return parse_rc;
  try {
    return arch_mode ? run_arch_mode(args) : run_lexical_mode(args);
  } catch (const std::exception& e) {
    std::cerr << "ccmx_lint: " << e.what() << "\n";
    return 2;
  }
}
