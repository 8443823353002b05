// Named counter values, read back by name.
//
// A Registry holds no live state of its own: SparkContext::metrics() fills
// one from the counters' owners (the TaskScheduler accessors and the
// context's own recompute/replan counts) and returns it by value, so benches
// and tests can look a number up under a stable name:
//
//   const metrics::Registry m = ctx.metrics();
//   m.counter_value("engine/tasks/finished");  // == scheduler().tasks_succeeded()
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>

namespace saex::metrics {

class Registry {
 public:
  void set(std::string name, double value) { values_[std::move(name)] = value; }

  /// The value set under `name`, or 0 if none was.
  double counter_value(std::string_view name) const noexcept {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double, std::less<>> values_;
};

}  // namespace saex::metrics
