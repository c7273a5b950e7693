// Lightweight leveled logger; writes to stderr so bench stdout stays
// machine-parseable. Thread-safe: the level is atomic (set_log_level may
// run while lane dispatchers log), and each line is formatted whole and
// written with one call, so lines from concurrent threads never
// interleave.
#pragma once

#include <sstream>
#include <string>

namespace sia::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are dropped.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Emit one line at the given level (no newline needed).
void log_line(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
    if (log_level() <= LogLevel::kDebug) {
        log_line(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
    }
}

template <typename... Args>
void log_info(Args&&... args) {
    if (log_level() <= LogLevel::kInfo) {
        log_line(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
    }
}

template <typename... Args>
void log_warn(Args&&... args) {
    if (log_level() <= LogLevel::kWarn) {
        log_line(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
    }
}

template <typename... Args>
void log_error(Args&&... args) {
    if (log_level() <= LogLevel::kError) {
        log_line(LogLevel::kError, detail::concat(std::forward<Args>(args)...));
    }
}

}  // namespace sia::util
