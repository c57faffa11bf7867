#ifndef DIGEST_BENCH_BENCH_UTIL_H_
#define DIGEST_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment-reproduction binaries in bench/.
// Each binary regenerates one table or figure of the paper and prints it
// as an aligned text table, with a --scale flag to trade fidelity for
// runtime (scale=1.0 reproduces the paper's full workload sizes).

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "common/result.h"
#include "common/status.h"
#include "diag/diag.h"
#include "net/peer_health.h"
#include "obs/exporters.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "prof/profiler.h"

namespace digest {
namespace bench {

/// A binary-specific flag a bench registers with BenchArgs::Parse so it
/// is accepted (the bench reads it from argv itself) and listed in the
/// shared usage text. `flag` is matched as an exact string, or as a
/// prefix when it ends in '='.
struct ExtraFlag {
  const char* flag;
  const char* help;
};

/// Command-line options common to every bench binary.
struct BenchArgs {
  double scale = 0.25;  ///< Workload-size multiplier vs the paper.
  uint64_t seed = 1;    ///< Master seed for the run.
  bool quick = false;   ///< Cut sweeps down for smoke runs.
  bool prof = false;             ///< --prof: wall-clock profiling.
  bool audit = false;            ///< --audit: precision-audit ledger.
  bool diag = false;             ///< --diag: sampler mixing/load diagnostics.
  bool health = false;           ///< --health: peer-health breakers.
  std::string trace_path;        ///< --trace=F: Chrome trace_event JSON.
  std::string trace_jsonl_path;  ///< --trace-jsonl=F: JSON Lines events.
  std::string metrics_path;      ///< --metrics=F: registry dump (JSON).

  static void PrintUsage(std::FILE* out, const char* binary,
                         const std::vector<ExtraFlag>& extra) {
    std::fprintf(out,
                 "usage: %s [--scale=F] [--seed=N] [--quick] [--prof] "
                 "[--audit] [--diag] [--health] [--trace=F] "
                 "[--trace-jsonl=F] [--metrics=F]%s\n"
                 "  --scale=F        workload size multiplier vs the paper "
                 "(default 0.25; 1.0 = paper scale)\n"
                 "  --seed=N         master RNG seed (default 1)\n"
                 "  --quick          shorten sweeps for smoke testing\n"
                 "  --prof           profile wall-clock hot paths and print "
                 "the phase table\n"
                 "  --audit          run the precision auditor (per-run SLO "
                 "table; audit_* events when tracing)\n"
                 "  --diag           run the sampler diagnostics (mixing + "
                 "peer-load summary; diag events when tracing)\n"
                 "  --health         run the peer-health monitor (breaker/"
                 "quarantine summary; health events when tracing)\n"
                 "  --trace=F        write a Chrome trace_event file "
                 "(Perfetto-loadable)\n"
                 "  --trace-jsonl=F  write the structured event trace as "
                 "JSON Lines\n"
                 "  --metrics=F      write the metrics registry as JSON and "
                 "print a summary table\n",
                 binary, extra.empty() ? "" : " [bench-specific flags]");
    for (const ExtraFlag& e : extra) {
      std::fprintf(out, "  %-16s %s\n", e.flag, e.help);
    }
  }

  /// Parses the shared flags. Any `--flag` that is neither shared nor
  /// registered in `extra` is rejected with an error plus the usage
  /// text (exit 2), identically in every bench. Non-flag arguments are
  /// rejected the same way.
  static BenchArgs Parse(int argc, char** argv,
                         const std::vector<ExtraFlag>& extra = {}) {
    BenchArgs args;
    auto matches_extra = [&extra](const char* arg) {
      for (const ExtraFlag& e : extra) {
        const size_t n = std::strlen(e.flag);
        if (n > 0 && e.flag[n - 1] == '=') {
          if (std::strncmp(arg, e.flag, n) == 0) return true;
        } else if (std::strcmp(arg, e.flag) == 0) {
          return true;
        }
      }
      return false;
    };
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--scale=", 8) == 0) {
        // Parse strictly: atof's silent 0.0 for garbage would zero-scale
        // every workload config. Reject non-numeric, trailing-garbage,
        // non-finite, and non-positive values the same way an unknown
        // flag is rejected.
        const char* text = argv[i] + 8;
        char* end = nullptr;
        errno = 0;
        const double scale = std::strtod(text, &end);
        if (*text == '\0' || end == nullptr || *end != '\0' ||
            errno == ERANGE || !(scale > 0.0) ||
            scale > 1e12 /* finite, sane */) {
          std::fprintf(stderr,
                       "%s: invalid --scale value '%s' (need a positive "
                       "number)\n\n",
                       argv[0], text);
          PrintUsage(stderr, argv[0], extra);
          std::exit(2);
        }
        args.scale = scale;
      } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
        args.seed = ParseUintFlag(argv[0], "--seed", argv[i] + 7, 0, extra);
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        args.quick = true;
      } else if (std::strcmp(argv[i], "--prof") == 0) {
        args.prof = true;
      } else if (std::strcmp(argv[i], "--audit") == 0) {
        args.audit = true;
      } else if (std::strcmp(argv[i], "--diag") == 0) {
        args.diag = true;
      } else if (std::strcmp(argv[i], "--health") == 0) {
        args.health = true;
      } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
        args.trace_path = argv[i] + 8;
      } else if (std::strncmp(argv[i], "--trace-jsonl=", 14) == 0) {
        args.trace_jsonl_path = argv[i] + 14;
      } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
        args.metrics_path = argv[i] + 10;
      } else if (std::strcmp(argv[i], "--help") == 0) {
        PrintUsage(stdout, argv[0], extra);
        std::exit(0);
      } else if (!matches_extra(argv[i])) {
        std::fprintf(stderr, "%s: unknown flag '%s'\n\n", argv[0], argv[i]);
        PrintUsage(stderr, argv[0], extra);
        std::exit(2);
      }
    }
    return args;
  }

  /// Parses the value of an unsigned integer flag strictly; `text` is
  /// what follows "<flag>=". An empty value, a sign or other non-digit,
  /// trailing garbage, a value past 2^64 - 1 (ERANGE) or one below `min`
  /// is rejected the way a bad --scale is: an error, the usage text and
  /// exit 2.
  static uint64_t ParseUintFlag(const char* binary, const char* flag,
                                const char* text, uint64_t min,
                                const std::vector<ExtraFlag>& extra) {
    bool digits = *text != '\0';
    for (const char* c = text; *c != '\0'; ++c) {
      digits = digits && std::isdigit(static_cast<unsigned char>(*c));
    }
    errno = 0;
    const unsigned long long value =
        digits ? std::strtoull(text, nullptr, 10) : 0;
    if (!digits || errno == ERANGE || value < min) {
      std::fprintf(stderr,
                   "%s: invalid %s value '%s' (need an integer >= %llu)\n\n",
                   binary, flag, text, static_cast<unsigned long long>(min));
      PrintUsage(stderr, binary, extra);
      std::exit(2);
    }
    return value;
  }

  bool ObservabilityRequested() const {
    return !trace_path.empty() || !trace_jsonl_path.empty() ||
           !metrics_path.empty();
  }

  size_t Scaled(size_t paper_value, size_t minimum) const {
    const double v = static_cast<double>(paper_value) * scale;
    return v < static_cast<double>(minimum) ? minimum
                                            : static_cast<size_t>(v);
  }
};

/// Aborts the benchmark with a readable message on unexpected errors.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL in %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

/// Observability plumbing for a bench run, driven by the --trace /
/// --trace-jsonl / --metrics / --prof / --audit / --diag / --health
/// flags, handed out as one obs::Instruments that each engine run
/// attaches with DigestEngineOptions::Attach. Every instrument whose
/// flag is off is null, so the instrumented code takes its null fast
/// path — a run with none is bit-identical to an uninstrumented binary.
/// Call Finish() after the sweep to write the requested files and print
/// the end-of-run tables.
///
/// The tracer and registry exist iff an export flag is given. --prof
/// attaches a wall-clock prof::Profiler, prints the phase table at
/// Finish, and — with an export flag — adds the "wall" Chrome track,
/// `prof_phase` JSONL lines, and the metrics `prof` section to the
/// exported files. The auditor, diagnostics and health monitor compose
/// freely with the exports (their events and metrics ride the same
/// files) and with --prof. The health monitor steers walk routing
/// (quarantine-aware Metropolis), so --health runs are NOT
/// bit-identical to plain runs — by design.
class ObsSession {
 public:
  explicit ObsSession(const BenchArgs& args)
      : args_(args),
        instruments_{
            .tracer = args.ObservabilityRequested() ? &tracer_ : nullptr,
            .registry = args.ObservabilityRequested() ? &registry_ : nullptr,
            .profiler = args.prof ? &profiler_ : nullptr,
            .auditor = args.audit ? &auditor_ : nullptr,
            .diag = args.diag ? &diag_ : nullptr,
            .health = args.health ? &health_ : nullptr} {}
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  const obs::Instruments& instruments() const { return instruments_; }

  void Finish() {
    if (args_.health) {
      std::printf("\n%s", health_.SummaryText().c_str());
    }
    if (args_.diag) {
      std::printf("\n%s", diag_.SummaryText().c_str());
    }
    if (args_.audit) {
      std::printf("\n%s",
                  audit::RenderSloTable(auditor_.completed_runs()).c_str());
    }
    if (args_.prof) {
      std::printf("\n%s", prof::RenderProfSummary(profiler_).c_str());
    }
    if (!args_.ObservabilityRequested()) return;
    prof::Profiler* profiler = instruments_.profiler;
    if (!args_.trace_path.empty()) {
      CheckOk(obs::WriteChromeTrace(tracer_.events(), args_.trace_path,
                                    profiler),
              "--trace");
      std::printf("\nwrote Chrome trace (%zu events) to %s\n",
                  tracer_.events().size(), args_.trace_path.c_str());
    }
    if (!args_.trace_jsonl_path.empty()) {
      CheckOk(obs::WriteJsonLines(tracer_.events(), args_.trace_jsonl_path,
                                  profiler),
              "--trace-jsonl");
      std::printf("wrote JSONL trace (%zu events) to %s\n",
                  tracer_.events().size(),
                  args_.trace_jsonl_path.c_str());
    }
    if (!args_.metrics_path.empty()) {
      CheckOk(obs::WriteFile(args_.metrics_path,
                             obs::RenderMetricsJson(registry_, profiler)),
              "--metrics");
      std::printf("wrote metrics registry to %s\n",
                  args_.metrics_path.c_str());
      std::printf("\n%s", obs::RenderSummary(registry_).c_str());
    }
  }

 private:
  BenchArgs args_;
  obs::MemoryTracer tracer_;
  obs::Registry registry_;
  prof::Profiler profiler_;
  audit::PrecisionAuditor auditor_;
  diag::SamplerDiag diag_;
  PeerHealthMonitor health_;
  obs::Instruments instruments_;
};

/// One consistent rejection for a flag a bench cannot honor: same
/// message shape and exit status (2, like an unknown flag) in every
/// bench binary. `why` completes the sentence "is not supported by this
/// bench (<why>)".
inline void RejectFlag(const char* binary, const char* flag,
                       const char* why) {
  std::fprintf(stderr, "%s: flag '%s' is not supported by this bench (%s)\n",
               binary, flag, why);
  std::exit(2);
}

/// For benches with nothing to instrument (no engine runs): fail fast
/// with a clear message instead of silently ignoring a requested
/// export. Covers the whole instrumentation family, --audit included.
inline void RejectObservabilityFlags(const BenchArgs& args,
                                     const char* binary) {
  const char* flag = nullptr;
  if (!args.trace_path.empty()) flag = "--trace";
  if (!args.trace_jsonl_path.empty()) flag = "--trace-jsonl";
  if (!args.metrics_path.empty()) flag = "--metrics";
  if (args.prof) flag = "--prof";
  if (args.audit) flag = "--audit";
  if (args.diag) flag = "--diag";
  if (args.health) flag = "--health";
  if (flag != nullptr) {
    RejectFlag(binary, flag, "no engine runs to instrument");
  }
}

template <typename T>
T UnwrapOrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL in %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Minimal aligned-column table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf("%-*s", static_cast<int>(widths[c] + 2), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    size_t total = 0;
    for (size_t w : widths) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

inline std::string FmtInt(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace bench
}  // namespace digest

#endif  // DIGEST_BENCH_BENCH_UTIL_H_
