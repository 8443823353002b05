// Named counters and gauges.
//
// Components register counters under hierarchical names
// ("node3/disk/bytes_read"); benches and tests read them back by name.
// Single-threaded (simulation runs on one event loop), so no atomics.
//
// Hot paths do not pay for the name: a metric name is interned once into a
// dense MetricId (an index into a stable slot vector), and call sites hold a
// pre-resolved CounterHandle/GaugeHandle — an increment through a handle is
// a pointer deref + add. The string-keyed counter()/gauge() API remains as
// the cold-path shim (one map lookup per call) and aliases the same cell:
//
//   CounterHandle done = registry.counter_handle("engine/tasks/finished");
//   ...per-task hot path...
//   done.increment();                        // no lookup, no allocation
//   registry.counter_value("engine/tasks/finished");  // same cell
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace saex::metrics {

class Counter {
 public:
  void add(double v) noexcept { value_ += v; }
  void increment() noexcept { value_ += 1.0; }
  double value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Interned metric identity: a dense index into the owning Registry's slot
/// vector. Ids are assigned in interning order, never reused, and stay valid
/// for the registry's lifetime (slots are never removed).
class MetricId {
 public:
  constexpr MetricId() = default;
  constexpr explicit MetricId(uint32_t index) : index_(index) {}
  constexpr uint32_t index() const noexcept { return index_; }
  constexpr bool valid() const noexcept { return index_ != UINT32_MAX; }
  friend constexpr bool operator==(MetricId a, MetricId b) noexcept {
    return a.index_ == b.index_;
  }

 private:
  uint32_t index_ = UINT32_MAX;
};

/// Pre-resolved pointer to a counter cell. Cheap to copy; valid for the
/// registry's lifetime. Default-constructed handles are null — resolve via
/// Registry::counter_handle before use.
class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(Counter* cell) : cell_(cell) {}
  void add(double v) noexcept { assert(cell_); cell_->add(v); }
  void increment() noexcept { assert(cell_); cell_->increment(); }
  double value() const noexcept { assert(cell_); return cell_->value(); }
  explicit operator bool() const noexcept { return cell_ != nullptr; }

 private:
  Counter* cell_ = nullptr;
};

/// Pre-resolved pointer to a gauge cell; same lifetime rules as CounterHandle.
class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(Gauge* cell) : cell_(cell) {}
  void set(double v) noexcept { assert(cell_); cell_->set(v); }
  double value() const noexcept { assert(cell_); return cell_->value(); }
  explicit operator bool() const noexcept { return cell_ != nullptr; }

 private:
  Gauge* cell_ = nullptr;
};

/// Owns counters/gauges by name; cells live in stable-index slot storage
/// (std::deque), so references, handles, and MetricIds remain valid as the
/// registry grows.
class Registry {
 public:
  // --- interning + handles (resolve once, use on the hot path) -----------
  MetricId counter_id(std::string_view name);
  MetricId gauge_id(std::string_view name);
  CounterHandle counter_handle(std::string_view name) {
    return CounterHandle(&counter_slots_[counter_id(name).index()]);
  }
  GaugeHandle gauge_handle(std::string_view name) {
    return GaugeHandle(&gauge_slots_[gauge_id(name).index()]);
  }
  Counter& counter_at(MetricId id) noexcept {
    assert(id.valid() && id.index() < counter_slots_.size());
    return counter_slots_[id.index()];
  }
  Gauge& gauge_at(MetricId id) noexcept {
    assert(id.valid() && id.index() < gauge_slots_.size());
    return gauge_slots_[id.index()];
  }

  // --- string-keyed shim (cold path: one map lookup per call) ------------
  Counter& counter(std::string_view name) { return counter_at(counter_id(name)); }
  Gauge& gauge(std::string_view name) { return gauge_at(gauge_id(name)); }

  /// Value of a counter/gauge, or 0 if it does not exist.
  double counter_value(std::string_view name) const noexcept;
  double gauge_value(std::string_view name) const noexcept;

  /// Sorted names, optionally filtered by prefix.
  std::vector<std::string> counter_names(std::string_view prefix = "") const;

  size_t num_counters() const noexcept { return counter_slots_.size(); }
  size_t num_gauges() const noexcept { return gauge_slots_.size(); }

 private:
  // name -> slot index. std::map keeps counter_names() sorted for free; the
  // lookup cost only matters on the cold interning/shim path.
  std::map<std::string, uint32_t, std::less<>> counter_index_;
  std::map<std::string, uint32_t, std::less<>> gauge_index_;
  std::deque<Counter> counter_slots_;
  std::deque<Gauge> gauge_slots_;
};

}  // namespace saex::metrics
