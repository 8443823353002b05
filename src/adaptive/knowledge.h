// [K]nowledge base — the record the MAPE loop reads and writes.
//
// Stores, per stage, every measured interval and the final settled decision.
// Tests assert convergence through it and the real-thread example prints it;
// nothing reads it back to seed a later stage.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "adaptive/monitor.h"

namespace saex::adaptive {

struct StageRecord {
  std::vector<IntervalReport> intervals;  // in exploration order
  int settled_threads = 0;                // size in force when stage ended
  bool rolled_back = false;
  bool reached_bound = false;
};

class KnowledgeBase {
 public:
  void record_interval(int64_t stage_key, const IntervalReport& report) {
    stages_[stage_key].intervals.push_back(report);
  }

  void record_settled(int64_t stage_key, int threads, bool rolled_back,
                      bool reached_bound) {
    StageRecord& rec = stages_[stage_key];
    rec.settled_threads = threads;
    rec.rolled_back = rolled_back;
    rec.reached_bound = reached_bound;
  }

  const StageRecord* stage(int64_t stage_key) const noexcept {
    const auto it = stages_.find(stage_key);
    return it == stages_.end() ? nullptr : &it->second;
  }

  const std::map<int64_t, StageRecord>& stages() const noexcept { return stages_; }

 private:
  std::map<int64_t, StageRecord> stages_;
};

}  // namespace saex::adaptive
