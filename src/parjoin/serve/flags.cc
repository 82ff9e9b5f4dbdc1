#include "parjoin/serve/flags.h"

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "parjoin/plan/executor.h"

namespace parjoin {
namespace serve {

namespace {

// Shared shape checks: non-empty, no leading whitespace (strtol would skip
// it and hide the difference between " 8" and "8"), and for unsigned
// parses no leading '-' (strtoull silently wraps negatives).
Status PreflightNumeric(const std::string& text, bool allow_sign) {
  if (text.empty()) {
    return InvalidArgumentError("empty numeric value");
  }
  const char first = text[0];
  if (first == ' ' || first == '\t') {
    return InvalidArgumentError("numeric value '" + text +
                                "' has leading whitespace");
  }
  if (!allow_sign && (first == '-' || first == '+')) {
    return InvalidArgumentError("numeric value '" + text +
                                "' must be unsigned");
  }
  return OkStatus();
}

}  // namespace

StatusOr<std::int64_t> ParseInt64Text(const std::string& text) {
  PARJOIN_RETURN_IF_ERROR(PreflightNumeric(text, /*allow_sign=*/true));
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return InvalidArgumentError("'" + text + "' is not an integer");
  }
  if (errno == ERANGE) {
    return InvalidArgumentError("'" + text + "' is out of int64 range");
  }
  return static_cast<std::int64_t>(value);
}

StatusOr<std::uint64_t> ParseUint64Text(const std::string& text) {
  PARJOIN_RETURN_IF_ERROR(PreflightNumeric(text, /*allow_sign=*/false));
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return InvalidArgumentError("'" + text +
                                "' is not an unsigned integer");
  }
  if (errno == ERANGE) {
    return InvalidArgumentError("'" + text + "' is out of uint64 range");
  }
  return static_cast<std::uint64_t>(value);
}

StatusOr<double> ParseDoubleText(const std::string& text) {
  PARJOIN_RETURN_IF_ERROR(PreflightNumeric(text, /*allow_sign=*/true));
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return InvalidArgumentError("'" + text + "' is not a number");
  }
  if (errno == ERANGE) {
    return InvalidArgumentError("'" + text + "' is out of double range");
  }
  return value;
}

bool MatchFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

namespace {

template <typename T>
StatusOr<T> Contextualize(const std::string& flag, StatusOr<T> parsed,
                          const char* kind) {
  if (parsed.ok()) return parsed;
  return InvalidArgumentError("--" + flag + " needs " + kind + ": " +
                              parsed.status().message());
}

}  // namespace

StatusOr<std::int64_t> ParseInt64Flag(const std::string& flag,
                                      const std::string& value) {
  return Contextualize(flag, ParseInt64Text(value), "an integer");
}

StatusOr<std::uint64_t> ParseUint64Flag(const std::string& flag,
                                        const std::string& value) {
  return Contextualize(flag, ParseUint64Text(value), "an unsigned integer");
}

StatusOr<double> ParseDoubleFlag(const std::string& flag,
                                 const std::string& value) {
  return Contextualize(flag, ParseDoubleText(value), "a number");
}

namespace {

StatusOr<double> ParsePositiveFlag(const std::string& flag,
                                   const std::string& value) {
  StatusOr<double> parsed = ParseDoubleText(value);
  if (!parsed.ok() || !(*parsed > 0)) {
    return InvalidArgumentError("--" + flag + " needs a number > 0, got '" +
                                value + "'");
  }
  return parsed;
}

}  // namespace

StatusOr<std::vector<std::string>> ParseSharedFlags(
    const std::vector<std::string>& args, plan::ExecutionOptions* exec,
    ObsFiles* files) {
  const std::pair<const char*, std::string*> path_flags[] = {
      {"trace-out", &files->trace_out},
      {"profile", &files->profile},
      {"calibration", &files->calibration}};
  std::vector<std::string> rest;
  bool interval_given = false;
  for (const std::string& arg : args) {
    std::string value;
    if (arg == "--resume") {
      exec->resume_from_checkpoint = true;
    } else if (arg == "--replan") {
      exec->replan_on_budget_abort = true;
    } else if (MatchFlag(arg, "faults", &value)) {
      PARJOIN_ASSIGN_OR_RETURN(exec->faults.seed,
                               ParseUint64Flag("faults", value));
      exec->faults.enabled = true;
    } else if (MatchFlag(arg, "checkpoint-interval", &value)) {
      StatusOr<std::int64_t> interval = ParseInt64Text(value);
      if (!interval.ok() || *interval < 0 || *interval > 1000000) {
        return InvalidArgumentError(
            "--checkpoint-interval needs an integer in [0, 1000000], got '" +
            value + "'");
      }
      exec->checkpoint_interval = static_cast<int>(*interval);
      interval_given = true;
    } else if (MatchFlag(arg, "straggle-threshold", &value)) {
      PARJOIN_ASSIGN_OR_RETURN(exec->straggle_threshold,
                               ParsePositiveFlag("straggle-threshold", value));
    } else if (MatchFlag(arg, "load-budget-factor", &value)) {
      PARJOIN_ASSIGN_OR_RETURN(exec->load_budget_factor,
                               ParsePositiveFlag("load-budget-factor", value));
    } else {
      bool is_path = false;
      for (const auto& [name, path] : path_flags) {
        if (!MatchFlag(arg, name, &value)) continue;
        if (value.empty()) {
          return InvalidArgumentError(std::string("--") + name +
                                      " needs a file path");
        }
        *path = value;
        is_path = true;
      }
      if (!is_path) rest.push_back(arg);
    }
  }
  if (exec->faults.enabled && !interval_given) exec->checkpoint_interval = 2;
  if (exec->resume_from_checkpoint && exec->checkpoint_interval == 0) {
    return InvalidArgumentError(
        "--resume needs a checkpoint interval > 0 (--checkpoint-interval=<r>"
        ", or --faults alone, which implies 2)");
  }
  if (exec->replan_on_budget_abort && exec->load_budget_factor == 0) {
    return InvalidArgumentError("--replan needs --load-budget-factor");
  }
  if (exec->straggle_threshold > 0 && !exec->faults.enabled) {
    return InvalidArgumentError("--straggle-threshold needs --faults");
  }
  return rest;
}

}  // namespace serve
}  // namespace parjoin
