#include "util/log.hpp"

#include <atomic>
#include <cstdio>

namespace sia::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};

const char* level_name(LogLevel level) {
    switch (level) {
        case LogLevel::kDebug: return "DEBUG";
        case LogLevel::kInfo: return "INFO ";
        case LogLevel::kWarn: return "WARN ";
        case LogLevel::kError: return "ERROR";
        case LogLevel::kOff: return "OFF  ";
    }
    return "?????";
}
}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() noexcept { return g_level.load(std::memory_order_relaxed); }

void log_line(LogLevel level, const std::string& msg) {
    std::string line = "[";
    line.reserve(msg.size() + 10);
    line += level_name(level);
    line += "] ";
    line += msg;
    line += '\n';
    // One stdio call per line: the stream's lock keeps lines logged by
    // concurrent threads whole.
    std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace sia::util
