#include "engine/event_log.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/format.h"

namespace saex::engine {

std::string_view event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kJobStart: return "JobStart";
    case EventKind::kJobEnd: return "JobEnd";
    case EventKind::kStageStart: return "StageStart";
    case EventKind::kStageEnd: return "StageEnd";
    case EventKind::kTaskStart: return "TaskStart";
    case EventKind::kTaskEnd: return "TaskEnd";
    case EventKind::kTaskFailed: return "TaskFailed";
    case EventKind::kPoolResize: return "PoolResize";
    case EventKind::kSpeculativeLaunch: return "SpeculativeLaunch";
    case EventKind::kJobSubmitted: return "JobSubmitted";
    case EventKind::kJobRejected: return "JobRejected";
    case EventKind::kJobDequeued: return "JobDequeued";
    case EventKind::kExecutorGranted: return "ExecutorGranted";
    case EventKind::kExecutorReleased: return "ExecutorReleased";
    case EventKind::kExecutorLost: return "ExecutorLost";
    case EventKind::kFetchFailed: return "FetchFailed";
    case EventKind::kStageResubmitted: return "StageResubmitted";
    case EventKind::kStageReplanned: return "StageReplanned";
    case EventKind::kDiskDegraded: return "DiskDegraded";
    case EventKind::kExecutorRevived: return "ExecutorRevived";
    case EventKind::kNodeQuarantined: return "NodeQuarantined";
    case EventKind::kNodeReinstated: return "NodeReinstated";
    case EventKind::kJobShed: return "JobShed";
    case EventKind::kJobCancelled: return "JobCancelled";
    case EventKind::kJobRetried: return "JobRetried";
  }
  return "?";
}

namespace {

// Minimal JSON string escaping (labels are engine-generated but may contain
// quotes from user-chosen op names).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[7];
          std::snprintf(hex, sizeof hex, "\\u%04x", static_cast<unsigned>(c));
          out += hex;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::vector<Event> EventLog::of_kind(EventKind kind) const {
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::string EventLog::to_json_lines() const {
  std::ostringstream out;
  for (const Event& e : events_) {
    out << strfmt::format(
        R"({{"event":"{}","time":{:.6f},"job":{},"stage":{},"partition":{},"node":{},"value":{},"label":"{}"}})",
        std::string(event_kind_name(e.kind)), e.time, e.job, e.stage,
        e.partition, e.node, e.value, escape(e.label));
    out << '\n';
  }
  return out.str();
}

std::string EventLog::to_chrome_trace() const {
  std::ostringstream out;
  out << "[";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    if (!first) out << ",\n";
    first = false;
    out << obj;
  };

  // Pair task starts with their ends per (stage, partition, node).
  struct Open {
    double start;
    size_t key;
  };
  std::vector<std::pair<uint64_t, double>> open_tasks;  // key -> start time
  auto task_key = [](const Event& e) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(e.stage)) << 40) ^
           (static_cast<uint64_t>(static_cast<uint32_t>(e.partition)) << 8) ^
           static_cast<uint64_t>(static_cast<uint32_t>(e.node));
  };

  for (const Event& e : events_) {
    const double us = e.time * 1e6;
    switch (e.kind) {
      case EventKind::kTaskStart:
        open_tasks.emplace_back(task_key(e), e.time);
        break;
      case EventKind::kTaskEnd:
      case EventKind::kTaskFailed: {
        double start = e.time;
        const uint64_t key = task_key(e);
        for (auto it = open_tasks.rbegin(); it != open_tasks.rend(); ++it) {
          if (it->first == key) {
            start = it->second;
            open_tasks.erase(std::next(it).base());
            break;
          }
        }
        emit(strfmt::format(
            R"({{"name":"s{}-p{}","cat":"task","ph":"X","ts":{:.1f},"dur":{:.1f},"pid":{},"tid":{}}})",
            e.stage, e.partition, start * 1e6, (e.time - start) * 1e6, e.node,
            e.partition % 64));
        break;
      }
      case EventKind::kPoolResize:
        emit(strfmt::format(
            R"({{"name":"pool size","ph":"C","ts":{:.1f},"pid":{},"args":{{"threads":{}}}}})",
            us, e.node, e.value));
        break;
      case EventKind::kStageStart:
      case EventKind::kJobStart:
        emit(strfmt::format(
            R"({{"name":"{}","cat":"stage","ph":"B","ts":{:.1f},"pid":0,"tid":0}})",
            escape(e.label.empty() ? std::string(event_kind_name(e.kind))
                                   : e.label),
            us));
        break;
      case EventKind::kStageEnd:
      case EventKind::kJobEnd:
        emit(strfmt::format(R"({{"ph":"E","ts":{:.1f},"pid":0,"tid":0}})", us));
        break;
      case EventKind::kSpeculativeLaunch:
        emit(strfmt::format(
            R"({{"name":"speculative s{}-p{}","ph":"i","ts":{:.1f},"pid":{},"tid":0,"s":"p"}})",
            e.stage, e.partition, us, e.node));
        break;
      case EventKind::kExecutorGranted:
      case EventKind::kExecutorReleased:
      case EventKind::kExecutorLost:
      case EventKind::kStageResubmitted:
      case EventKind::kStageReplanned:
      case EventKind::kDiskDegraded:
      case EventKind::kExecutorRevived:
      case EventKind::kNodeQuarantined:
      case EventKind::kNodeReinstated:
        emit(strfmt::format(
            R"({{"name":"{}","ph":"i","ts":{:.1f},"pid":{},"tid":0,"s":"p"}})",
            std::string(event_kind_name(e.kind)), us, e.node));
        break;
      case EventKind::kJobSubmitted:
      case EventKind::kJobRejected:
      case EventKind::kJobDequeued:
      case EventKind::kFetchFailed:
      case EventKind::kJobShed:
      case EventKind::kJobCancelled:
      case EventKind::kJobRetried:
        break;  // admission/fetch events carry no duration; JSON-lines has them
    }
  }
  out << "]\n";
  return out.str();
}

bool EventLog::write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace saex::engine
