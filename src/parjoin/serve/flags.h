// Checked numeric parsing for command-line flags and spec directives, and
// the one parser of the flags query_runner and parjoind share.
//
// strtol-family calls with no endptr/range validation turn typos into
// silent zeros (`--faults=abc` used to become seed 0, and
// `--checkpoint-interval=-3` was accepted as a negative interval). These
// helpers parse the WHOLE token or fail: leading/trailing garbage, empty
// strings, and out-of-range values all surface as InvalidArgument with the
// offending text in the message. Both query_runner and parjoind route
// every numeric flag through them and exit 2 with a usage line on error.

#ifndef PARJOIN_SERVE_FLAGS_H_
#define PARJOIN_SERVE_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "parjoin/common/status.h"

namespace parjoin {
namespace plan {
struct ExecutionOptions;
}  // namespace plan

namespace serve {

// Parses the ENTIRE text as one value of the target type. Rejects empty
// input, surrounding whitespace, trailing garbage ("8x"), and values
// outside the type's range. Error messages quote the offending text.
StatusOr<std::int64_t> ParseInt64Text(const std::string& text);
StatusOr<std::uint64_t> ParseUint64Text(const std::string& text);
StatusOr<double> ParseDoubleText(const std::string& text);

// True when `arg` is "--<name>=<value>"; *value receives <value> (possibly
// empty). False otherwise, leaving *value untouched.
bool MatchFlag(const std::string& arg, const std::string& name,
               std::string* value);

// Convenience wrappers that contextualize the parse error with the flag
// name ("--faults needs an unsigned integer, got 'abc'").
StatusOr<std::int64_t> ParseInt64Flag(const std::string& flag,
                                      const std::string& value);
StatusOr<std::uint64_t> ParseUint64Flag(const std::string& flag,
                                        const std::string& value);
StatusOr<double> ParseDoubleFlag(const std::string& flag,
                                 const std::string& value);

// --- flags shared by query_runner and parjoind ------------------------------
//
//   --faults=<seed>            deterministic fault injection (crash,
//                              straggler and corrupted message per run)
//   --checkpoint-interval=<r>  replicate state every r rounds, 0 <= r <=
//                              1000000; --faults alone implies r = 2
//   --resume                   after a crash, fast-forward the replay over
//                              the rounds the latest interval checkpoint
//                              covers (needs a checkpoint interval > 0)
//   --straggle-threshold=<f>   re-balance injected straggles with delay
//                              factor >= f onto the other live servers
//                              (f > 0; needs --faults)
//   --load-budget-factor=<f>   abort rounds above f x predicted load and
//                              degrade onto the Yannakakis baseline (f > 0)
//   --replan                   on a load-budget abort, re-plan onto the
//                              cheapest remaining candidate instead of
//                              degrading (needs --load-budget-factor)
//   --trace-out=<file>         write a parjoin-trace-v1 JSONL round trace
//   --profile=<file>           parjoin-profile-v1 store: merged with this
//                              run's executions and written back
//   --calibration=<file>       plan with a parjoin-calibration-v1 table

// Usage-line fragment listing the shared flags.
inline constexpr char kSharedFlagsUsage[] =
    "[--faults=<seed>] [--checkpoint-interval=<r>] [--resume]"
    " [--straggle-threshold=<f>] [--load-budget-factor=<f>] [--replan]"
    " [--trace-out=<file>] [--profile=<file>] [--calibration=<file>]";

// The observability files the shared flags name; empty = off.
struct ObsFiles {
  std::string trace_out;
  std::string profile;
  std::string calibration;
};

// Consumes the shared flags in `args` into *exec and *files and returns the
// other arguments (driver-specific flags, positionals) in order. Defaults
// and cross-flag checks apply after the whole list is read, so flag order
// never matters. A malformed value, or a flag that cannot take effect
// (--resume with no checkpoint interval, --replan without
// --load-budget-factor, --straggle-threshold without --faults), is an
// InvalidArgument naming the flag.
StatusOr<std::vector<std::string>> ParseSharedFlags(
    const std::vector<std::string>& args, plan::ExecutionOptions* exec,
    ObsFiles* files);

}  // namespace serve
}  // namespace parjoin

#endif  // PARJOIN_SERVE_FLAGS_H_
