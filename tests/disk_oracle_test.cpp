// A deliberately naive reference disk, and a seeded property test that
// drives random mutation sequences through it and through hw::Disk.
//
// The reference is the fluid model written out the slow, obvious way: one
// kernel event per arrival and one for the next completion, a full rescan
// of the active transfers for every rate, the closed-form capacity curve
// (no memo), a settle before every rate change, no arrival FIFO and no
// projection. hw::Disk must match it exactly: every completion time and
// every reading of its state (active transfers, bytes, busy history) is
// compared bit for bit.
//
// Both models settle at the same instants (arrivals, completions, speed
// changes) with the same arithmetic, so exact equality is the contract.
// Readings are taken where their order against same-instant arrivals is
// defined: between kernel events at random times, after run_until() (also
// exactly at an arrival instant), and in the completion callbacks of
// transfers, which run before any arrival due at that instant joins.
// Work per transfer is at least one unit, so no arrival finishes at the
// instant it joins.
//
// A failing case is shrunk greedily to a minimal sequence and printed as a
// `Case` initializer; paste it into `kReplay` below to replay it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "hw/disk.h"
#include "metrics/io_accounting.h"
#include "sim/simulation.h"

namespace saex::hw {
namespace {

// --- the reference ------------------------------------------------------------

class ReferenceDisk {
 public:
  ReferenceDisk(sim::Simulation& sim, DiskParams params)
      : sim_(sim), params_(params) {}

  void submit(Bytes bytes, bool is_write, sim::Callback done,
              double work_factor) {
    if (bytes == 0) {
      sim_.schedule_after(params_.latency, std::move(done));
      return;
    }
    const double work = static_cast<double>(bytes) * work_factor *
                        (is_write ? params_.write_cost_factor : 1.0);
    // Each arrival is its own kernel event.
    sim_.schedule_after(
        params_.latency,
        [this, bytes, x = Transfer{work, is_write, std::move(done)}]() mutable {
          arrive(std::move(x), bytes);
        });
  }

  void set_speed_factor(double factor) {
    settle();
    finish();
    speed_ = factor;
    reschedule();
  }

  int active_transfers() const { return static_cast<int>(active_.size()); }
  Bytes total_bytes_read() const { return read_; }
  Bytes total_bytes_written() const { return written_; }
  const metrics::UtilizationTracker& busy_tracker() const { return busy_; }

 private:
  struct Transfer {
    double remaining;
    bool is_write;
    sim::Callback done;
  };

  // The capacity curve as DiskParams documents it.
  double capacity(double kd) const {
    if (kd <= 0.0) return 0.0;
    if (kd < 1.0) kd = 1.0;
    const double base = params_.base_bw * speed_;
    if (params_.ssd_ramp > 0.0) {
      const double ramp = kd / (kd + params_.ssd_ramp);
      const double wear =
          1.0 + params_.wear_coeff * std::max(0.0, kd - params_.k_wear);
      return base * ramp / wear;
    }
    const double queue_gain =
        1.0 + params_.ncq_gain * (1.0 - std::pow(kd, -params_.ncq_pow));
    const double fragmentation =
        1.0 + params_.frag_coeff * std::max(0.0, kd - params_.k_sat);
    return base * queue_gain / fragmentation;
  }

  // Every transfer's rate, from a full rescan.
  double rate() const {
    double kd = 0.0;
    for (const Transfer& x : active_) {
      kd += x.is_write ? params_.write_stream_weight : 1.0;
    }
    return active_.empty()
               ? 0.0
               : capacity(kd) / static_cast<double>(active_.size());
  }

  void settle() {
    const double dt = sim_.now() - last_;
    last_ = sim_.now();
    if (dt <= 0.0) return;
    const double r = rate();
    for (Transfer& x : active_) x.remaining -= r * dt;
  }

  // Retires the finished transfers, moves the completion event, then runs
  // their callbacks.
  void finish() {
    std::vector<sim::Callback> done;
    std::vector<Transfer> left;
    for (Transfer& x : active_) {
      if (x.remaining <= 0.5) {
        done.push_back(std::move(x.done));
      } else {
        left.push_back(std::move(x));
      }
    }
    active_ = std::move(left);
    if (active_.empty() && !done.empty()) busy_.set_active(sim_.now(), 0.0);
    reschedule();
    for (auto& fn : done) fn();
  }

  void reschedule() {
    sim_.cancel(completion_);
    completion_ = sim::kInvalidEvent;
    if (active_.empty()) return;
    double least = active_.front().remaining;
    for (const Transfer& x : active_) least = std::min(least, x.remaining);
    completion_ = sim_.schedule_at(
        sim_.now() + std::max(least / rate(), 1e-9), [this] {
          completion_ = sim::kInvalidEvent;
          settle();
          finish();
        });
  }

  // A completion due at this instant runs its callbacks before the arrival
  // joins.
  void arrive(Transfer x, Bytes bytes) {
    settle();
    finish();
    if (active_.empty()) busy_.set_active(sim_.now(), 1.0);
    (x.is_write ? written_ : read_) += bytes;
    active_.push_back(std::move(x));
    reschedule();
  }

  sim::Simulation& sim_;
  DiskParams params_;
  double speed_ = 1.0;
  std::vector<Transfer> active_;
  double last_ = 0.0;
  sim::EventId completion_ = sim::kInvalidEvent;
  Bytes read_ = 0;
  Bytes written_ = 0;
  metrics::UtilizationTracker busy_{1.0, Disk::kUtilWindow};
};

// --- sequences ----------------------------------------------------------------

enum class Kind { kNone, kSubmit, kSpeed, kRead };

// What a transfer's completion callback does.
struct Then {
  Kind kind = Kind::kNone;
  Bytes bytes = 0;  // kSubmit
  bool write = false;
  double factor = 1.0;  // kSpeed
};

// One top-level mutation, run as its own kernel event at `t`.
struct Op {
  double t = 0.0;
  Kind kind = Kind::kSubmit;
  Bytes bytes = 0;  // kSubmit
  bool write = false;
  double work_factor = 1.0;
  double factor = 1.0;  // kSpeed
  Then then;            // kSubmit
};

struct Case {
  uint64_t seed = 0;
  bool ssd = false;
  double latency = 0.0;
  std::vector<Op> ops;
  std::vector<double> checkpoints;  // reads after run_until()
};

struct Reading {
  double now;
  int active;
  Bytes read;
  Bytes written;
  double busy_integral;
  double busy_last;
  size_t busy_points;
  bool operator==(const Reading&) const = default;
};

struct Outcome {
  std::vector<std::pair<int, double>> done;  // (transfer, time), in order
  std::vector<Reading> readings;
  std::vector<double> pool_done;  // completion times of non-empty transfers
};

DiskParams params_of(const Case& c) {
  DiskParams p = c.ssd ? DiskParams::ssd() : DiskParams::hdd();
  p.latency = c.latency;
  return p;
}

template <typename Model>
Outcome drive(const Case& c, Model& disk, sim::Simulation& sim) {
  Outcome out;
  int next_id = 0;
  // Each reader must catch up on its own, so the first one called rotates.
  const auto read = [&] {
    Reading r{};
    r.now = sim.now();
    for (size_t k = 0; k < 4; ++k) {
      switch ((out.readings.size() + k) % 4) {
        case 0:
          r.active = disk.active_transfers();
          break;
        case 1:
          r.read = disk.total_bytes_read();
          break;
        case 2:
          r.written = disk.total_bytes_written();
          break;
        default: {
          const metrics::UtilizationTracker& busy = disk.busy_tracker();
          r.busy_integral = busy.integral_at(sim.now());
          r.busy_last = busy.last_update();
          r.busy_points = busy.retained_points();
        }
      }
    }
    out.readings.push_back(r);
  };
  std::function<void(Bytes, bool, double, Then)> submit =
      [&](Bytes bytes, bool write, double work_factor, Then then) {
        const int id = next_id++;
        disk.submit(
            bytes, write,
            [&, id, then, zero = bytes == 0] {
              out.done.emplace_back(id, sim.now());
              if (!zero) out.pool_done.push_back(sim.now());
              switch (then.kind) {
                case Kind::kSubmit:
                  submit(then.bytes, then.write, 1.0, Then{});
                  break;
                case Kind::kSpeed:
                  disk.set_speed_factor(then.factor);
                  break;
                case Kind::kRead:
                  // A zero-byte transfer's callback is a plain kernel event
                  // at its arrival instant, unordered against the arrivals
                  // due there, so it reads nothing.
                  if (!zero) read();
                  break;
                case Kind::kNone:
                  break;
              }
            },
            work_factor);
      };
  for (const Op& op : c.ops) {
    sim.schedule_at(op.t, [&, op] {
      switch (op.kind) {
        case Kind::kSubmit:
          submit(op.bytes, op.write, op.work_factor, op.then);
          break;
        case Kind::kSpeed:
          disk.set_speed_factor(op.factor);
          break;
        case Kind::kRead:
          read();
          break;
        case Kind::kNone:
          break;
      }
    });
  }
  std::vector<double> checkpoints = c.checkpoints;
  std::sort(checkpoints.begin(), checkpoints.end());
  for (const double t : checkpoints) {
    sim.run_until(t);
    read();
  }
  sim.run();
  read();
  return out;
}

Outcome run_production(const Case& c) {
  sim::Simulation sim;
  Disk disk(sim, params_of(c), "d");
  return drive(c, disk, sim);
}

Outcome run_reference(const Case& c) {
  sim::Simulation sim;
  ReferenceDisk disk(sim, params_of(c));
  return drive(c, disk, sim);
}

// Empty when the two outcomes agree bit for bit; else the first mismatch.
std::string mismatch(const Case& c) {
  const Outcome got = run_production(c);
  const Outcome want = run_reference(c);
  char buf[256];
  for (size_t i = 0; i < std::max(got.done.size(), want.done.size()); ++i) {
    if (i >= got.done.size() || i >= want.done.size()) {
      std::snprintf(buf, sizeof buf, "%zu completions, reference %zu",
                    got.done.size(), want.done.size());
      return buf;
    }
    if (got.done[i] != want.done[i]) {
      std::snprintf(buf, sizeof buf,
                    "completion %zu: transfer %d at %.17g, reference "
                    "transfer %d at %.17g",
                    i, got.done[i].first, got.done[i].second,
                    want.done[i].first, want.done[i].second);
      return buf;
    }
  }
  for (size_t i = 0; i < std::max(got.readings.size(), want.readings.size());
       ++i) {
    if (i >= got.readings.size() || i >= want.readings.size()) {
      std::snprintf(buf, sizeof buf, "%zu readings, reference %zu",
                    got.readings.size(), want.readings.size());
      return buf;
    }
    const Reading& g = got.readings[i];
    const Reading& w = want.readings[i];
    if (!(g == w)) {
      std::snprintf(
          buf, sizeof buf,
          "reading %zu at %.17g: active %d/%d, read %" PRId64 "/%" PRId64
          ", written %" PRId64 "/%" PRId64
          ", busy integral %.17g/%.17g, last %.17g/%.17g, points %zu/%zu",
          i, g.now, g.active, w.active, g.read, w.read, g.written, w.written,
          g.busy_integral, w.busy_integral, g.busy_last, w.busy_last,
          g.busy_points, w.busy_points);
      return buf;
    }
  }
  return {};
}

// --- generation, shrinking, printing -------------------------------------------

Case generate(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const auto chance = [&](double p) { return u(rng) < p; };
  const auto pick_bytes = [&]() -> Bytes {
    if (chance(0.08)) return 0;
    // Log-uniform over 1 B .. 64 MiB.
    return static_cast<Bytes>(std::exp(u(rng) * std::log(64.0 * 1024 * 1024)));
  };
  Case c;
  c.seed = seed;
  c.ssd = chance(0.25);
  const double latencies[] = {c.ssd ? DiskParams::ssd().latency
                                    : DiskParams::hdd().latency,
                              0.002, 0.05};
  c.latency = latencies[rng() % 3];
  const int n = 4 + static_cast<int>(rng() % 21);
  std::vector<double> submits;
  for (int i = 0; i < n; ++i) {
    Op op;
    const double kind = u(rng);
    op.kind = kind < 0.65 ? Kind::kSubmit
                          : (kind < 0.8 ? Kind::kSpeed : Kind::kRead);
    // A same-instant burst, or a fresh time over the first second.
    op.t = (!c.ops.empty() && chance(0.3)) ? c.ops.back().t : u(rng);
    if (op.kind == Kind::kSpeed) {
      op.factor = 0.2 + 1.8 * u(rng);
      // Inside some submit's latency window.
      if (!submits.empty() && chance(0.5)) {
        op.t = submits[rng() % submits.size()] +
               c.latency * (0.1 + 0.8 * u(rng));
      }
    }
    if (op.kind == Kind::kSubmit) {
      op.bytes = pick_bytes();
      op.write = chance(0.35);
      op.work_factor = chance(0.7) ? 1.0 : 1.0 + 2.0 * u(rng);
      const double then = u(rng);
      if (then < 0.25) {
        op.then = Then{Kind::kSubmit, pick_bytes(), chance(0.35), 1.0};
      } else if (then < 0.35) {
        op.then = Then{Kind::kSpeed, 0, false, 0.2 + 1.8 * u(rng)};
      } else if (then < 0.6) {
        op.then = Then{Kind::kRead, 0, false, 1.0};
      }
      submits.push_back(op.t);
    }
    c.ops.push_back(op);
  }
  const int random_reads = static_cast<int>(rng() % 5);
  for (int i = 0; i < random_reads; ++i) c.checkpoints.push_back(u(rng));
  // Exactly at an arrival instant: the sum the disk computes.
  for (int i = 0; i < 2 && !submits.empty(); ++i) {
    if (chance(0.5)) {
      c.checkpoints.push_back(submits[rng() % submits.size()] + c.latency);
    }
  }
  return c;
}

// Aims new mutations at instants where a transfer of `c` completes: a
// submit whose arrival lands on the completion or up to 4 ns before it
// (while the finishing transfer has at most half a unit left, so it
// completes at the arrival), a speed change at that arrival instant, and a
// read right after it. The reference run of `c` supplies the instants; a
// transfer completing at an arrival instant runs its callbacks before the
// arrival joins.
Case aim(Case c, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::vector<double> done = run_reference(c).pool_done;
  if (done.empty()) return c;
  const int aims = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < aims; ++i) {
    const double at = done[rng() % done.size()] - (u(rng) < 0.5 ? 0.0
                                                    : 4e-9 * u(rng));
    if (at - c.latency < 0.0) continue;
    Op op;
    op.t = at - c.latency;
    op.bytes = 1 + static_cast<Bytes>(u(rng) * 1e6);
    op.write = u(rng) < 0.35;
    op.then = Then{Kind::kRead, 0, false, 1.0};
    c.ops.push_back(op);
    if (u(rng) < 0.3) {
      c.ops.push_back(Op{at, Kind::kSpeed, 0, false, 1.0,
                         0.2 + 1.8 * u(rng), Then{}});
    }
    if (u(rng) < 0.3) c.checkpoints.push_back(at);
  }
  return c;
}

// Drops ops and checkpoints one at a time while the case still fails.
Case shrink(Case c) {
  for (bool again = true; again;) {
    again = false;
    for (size_t i = 0; i < c.ops.size(); ++i) {
      Case smaller = c;
      smaller.ops.erase(smaller.ops.begin() + static_cast<std::ptrdiff_t>(i));
      if (!mismatch(smaller).empty()) {
        c = std::move(smaller);
        again = true;
        --i;
      }
    }
    for (size_t i = 0; i < c.checkpoints.size(); ++i) {
      Case smaller = c;
      smaller.checkpoints.erase(smaller.checkpoints.begin() +
                                static_cast<std::ptrdiff_t>(i));
      if (!mismatch(smaller).empty()) {
        c = std::move(smaller);
        again = true;
        --i;
      }
    }
  }
  return c;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSubmit:
      return "Kind::kSubmit";
    case Kind::kSpeed:
      return "Kind::kSpeed";
    case Kind::kRead:
      return "Kind::kRead";
    case Kind::kNone:
      break;
  }
  return "Kind::kNone";
}

// A `Case` initializer, times in hex floats so a replay is exact.
std::string to_source(const Case& c) {
  std::string s;
  char buf[256];
  std::snprintf(buf, sizeof buf, "Case{%" PRIu64 "u, %s, %a,\n     {\n",
                c.seed, c.ssd ? "true" : "false", c.latency);
  s += buf;
  for (const Op& op : c.ops) {
    std::snprintf(buf, sizeof buf,
                  "      Op{%a, %s, %" PRId64 ", %s, %a, %a,\n"
                  "         Then{%s, %" PRId64 ", %s, %a}},\n",
                  op.t, kind_name(op.kind), op.bytes,
                  op.write ? "true" : "false", op.work_factor, op.factor,
                  kind_name(op.then.kind), op.then.bytes,
                  op.then.write ? "true" : "false", op.then.factor);
    s += buf;
  }
  s += "     },\n     {";
  for (const double t : c.checkpoints) {
    std::snprintf(buf, sizeof buf, "%a, ", t);
    s += buf;
  }
  s += "}}";
  return s;
}

// --- tests --------------------------------------------------------------------

constexpr uint64_t kCases = 10000;

TEST(DiskOracle, RandomSequencesMatchTheReferenceExactly) {
  int failures = 0;
  for (uint64_t seed = 1; seed <= kCases && failures < 3; ++seed) {
    std::mt19937_64 rng(~seed);
    Case c = generate(seed);
    if (rng() % 2 == 0) c = aim(std::move(c), rng);
    if (mismatch(c).empty()) continue;
    ++failures;
    const Case small = shrink(c);
    ADD_FAILURE() << "seed " << seed << ": " << mismatch(small)
                  << "\nminimal replayable sequence:\n"
                  << to_source(small);
  }
}

// Pinned sequences. The first is written by hand: a burst joining a busy
// disk, a degrade inside a latency window, completion callbacks that submit
// and degrade, and reads between and at arrival instants. The others are
// shrunk cases from the random test, each of which a broken variant of the
// pool failed:
//  - seed 2: the second read arrives exactly when the first completes; the
//    first's callback must not see it (admitting arrivals inside completion
//    callbacks);
//  - seed 13: the second read arrives while the first has under half a byte
//    left, so the first completes at that arrival, and a degrade lands on
//    that instant (a projection that passes such an arrival, and a catch-up
//    that admits an arrival due at the pending wake-up).
const Case kReplay[] = {
    Case{0u, false, 0.0004,
         {
             Op{0.0, Kind::kSubmit, 64 << 20, false, 1.0, 1.0,
                Then{Kind::kSubmit, 8 << 20, true, 1.0}},
             Op{0.1, Kind::kSubmit, 8 << 20, false, 1.0, 1.0,
                Then{Kind::kRead, 0, false, 1.0}},
             Op{0.1, Kind::kSubmit, 1, true, 2.5, 1.0,
                Then{Kind::kSpeed, 0, false, 0.5}},
             Op{0.1, Kind::kSubmit, 0, false, 1.0, 1.0,
                Then{Kind::kSpeed, 0, false, 1.5}},
             Op{0.1002, Kind::kSpeed, 0, false, 1.0, 0.3, Then{}},
             Op{0.3, Kind::kRead, 0, false, 1.0, 1.0, Then{}},
         },
         {0.1 + 0.0004, 0.10041, 0.7}},
    Case{2u, false, 0x1.a36e2eb1c432dp-12,
         {
             Op{0x1.4f42fdbfa64f5p-2, Kind::kSubmit, 10, false, 0x1p+0,
                0x1p+0, Then{Kind::kRead, 0, false, 0x1p+0}},
             Op{0x1.4f4303bd9108bp-2, Kind::kSubmit, 79560, false, 0x1p+0,
                0x1p+0, Then{Kind::kRead, 0, false, 0x1p+0}},
         },
         {}},
    Case{13u, false, 0x1.999999999999ap-5,
         {
             Op{0x1.3bbf6c2149e23p-9, Kind::kSubmit, 1116787, false, 0x1p+0,
                0x1p+0, Then{Kind::kNone, 0, false, 0x1p+0}},
             Op{0x1.95ad45723ba0cp-7, Kind::kSubmit, 367853, false, 0x1p+0,
                0x1p+0, Then{Kind::kRead, 0, false, 0x1p+0}},
             Op{0x1.ff04eaf62881dp-5, Kind::kSpeed, 0, false, 0x1p+0,
                0x1.6c4791268b8a4p-2, Then{Kind::kNone, 0, false, 0x1p+0}},
         },
         {}},
};

TEST(DiskOracle, PinnedSequencesMatchTheReferenceExactly) {
  for (const Case& c : kReplay) {
    EXPECT_EQ(mismatch(c), "") << to_source(c);
  }
}

}  // namespace
}  // namespace saex::hw
