// Plumbing shared by every e2e workload: the command line, exact
// percentiles, repeated set-up, and the result line.
//
// The result line is the last line of standard output, one JSON object:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
// An untraced run reports the end-to-end metrics, a traced run
// (--trace <file>) the per-layer ones.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace sia::bench::e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double us_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    std::string trace_path;  ///< empty = untraced run

    [[nodiscard]] bool traced() const noexcept { return !trace_path.empty(); }
};

/// Parses `--workload <name> --seed <n> [--seconds <s>] [--trace <file>]`.
/// Returns false (after printing usage) on anything else.
inline bool parse_args(int argc, char** argv, Args& args) {
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
            args.workload = argv[++i];
            have_workload = true;
        } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
            char* end = nullptr;
            args.seed = std::strtoull(argv[++i], &end, 10);
            have_seed = end != nullptr && *end == '\0';
        } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
            args.seconds = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
            args.trace_path = argv[++i];
        } else {
            have_workload = false;
            break;
        }
    }
    if (!have_workload || !have_seed || !(args.seconds > 0.0)) {
        std::cerr << "usage: e2e --workload <name> --seed <n> [--seconds <s>] "
                     "[--trace <file>]\n";
        return false;
    }
    return true;
}

/// Exact quantile with linear interpolation between closest ranks.
inline double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
inline double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

inline double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void check(bool ok, const std::string& what) {
        if (ok) return;
        correct = false;
        std::cerr << "CHECK FAILED: " << what << "\n";
    }
};

/// The result line; every metric printed with all its digits.
inline void print_result(Result result) {
    for (const Metric& m : result.metrics) {
        result.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    }
    std::ostringstream out;
    out << std::setprecision(17);
    out << "{\"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        out << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
            << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

/// Set-up stage timings of one repetition (per-layer metrics).
struct SetupStages {
    double calibrate_ms = 0.0;
    double convert_ms = 0.0;
    double prepare_ms = 0.0;  ///< backend engine/program/simulator construction
};

template <typename State>
struct SetUp {
    std::unique_ptr<State> state;  ///< the last repetition's state
    std::vector<double> seconds;   ///< wall time of each repetition
    std::vector<SetupStages> stages;
};

/// Build a workload's state repeatedly and keep the last one, so that
/// setup_s is a median and work moved into set-up shows: at least 3
/// times, and cheap set-ups again until a second has been spent (at
/// most 20 times). The previous state is destroyed before the next is
/// built, so peak memory and worker threads stay those of one instance.
template <typename State, typename Build>
SetUp<State> set_up(const Build& build) {
    SetUp<State> out;
    double spent_s = 0.0;
    while (out.seconds.size() < 3 || (spent_s < 1.0 && out.seconds.size() < 20)) {
        out.state.reset();
        const auto start = Clock::now();
        out.state = build();
        out.seconds.push_back(ms_between(start, Clock::now()) / 1e3);
        out.stages.push_back(out.state->stages);
        spent_s += out.seconds.back();
    }
    return out;
}

}  // namespace sia::bench::e2e
