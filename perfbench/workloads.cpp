#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "globe/coherence/checkers.hpp"
#include "globe/msg/envelope.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/util/rng.hpp"
#include "globe/workload/zipf.hpp"
#include "layers.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

using namespace globe;
using coherence::ClientModel;
using coherence::ObjectModel;
using replication::ClientBinding;
using replication::StoreEngine;
using replication::Testbed;
using replication::TestbedOptions;

constexpr ObjectId kObj = 1;
// Replica clocks are polled at this simulated step; the visibility the
// poll reports is exact to within one step.
constexpr sim::SimDuration kPoll = sim::SimDuration::millis(1);

/// Sizing and mix of one workload's measured phase.
struct Shape {
  int ops = 0;
  sim::SimDuration interval;  // one operation due every interval
  int write_every = 10;       // exactly one write in each block of this many
  std::size_t targets = 0;    // pages (single object) or objects (sharded)
  std::size_t value_bytes = 0;
  std::size_t clients = 0;
};

Shape shape_of(Workload w) {
  switch (w) {
    case Workload::kLayeredSessions:
      return {10000, sim::SimDuration::millis(2), 10, 24, 1024, 240};
    case Workload::kShardedObjects:
      return {9000, sim::SimDuration::millis(5), 3, 10000, 64, 4};
    case Workload::kMembershipChurn:
      return {10000, sim::SimDuration::millis(2), 10, 24, 1024, 240};
  }
  return {};
}

/// `tag` followed by deterministic filler up to `size` bytes, so every
/// written value is unique and of the workload's size.
std::string padded(const std::string& tag, std::size_t size) {
  std::string s = tag + ":";
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  while (s.size() < size) {
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    s.push_back(static_cast<char>('a' + h % 26));
  }
  return s;
}

struct PlannedOp {
  sim::SimDuration due;  // offset from the start of the measured phase
  std::uint32_t client = 0;
  std::uint32_t target = 0;  // page index or object index
  bool write = false;
};

std::vector<PlannedOp> plan_ops(const Shape& shape, util::Rng& rng) {
  workload::ZipfGenerator zipf(shape.targets, 0.9);
  std::vector<PlannedOp> ops(static_cast<std::size_t>(shape.ops));
  std::uint64_t write_slot = 0;
  for (int i = 0; i < shape.ops; ++i) {
    if (i % shape.write_every == 0) {
      write_slot = rng.below(static_cast<std::uint64_t>(shape.write_every));
    }
    PlannedOp& op = ops[static_cast<std::size_t>(i)];
    op.due = shape.interval * i;
    op.client = static_cast<std::uint32_t>(rng.below(shape.clients));
    op.target = static_cast<std::uint32_t>(zipf.sample(rng));
    op.write = static_cast<std::uint64_t>(i % shape.write_every) == write_slot;
  }
  return ops;
}

/// Message types grouped the way the per-layer metrics report them.
const std::vector<std::pair<std::string, std::vector<msg::MsgType>>>&
msg_groups() {
  using T = msg::MsgType;
  static const std::vector<std::pair<std::string, std::vector<T>>> groups = {
      {"invoke",
       {T::kInvokeRequest, T::kInvokeReply, T::kWriteForward, T::kWriteAck}},
      {"update", {T::kUpdate}},
      {"notify", {T::kNotify, T::kInvalidate}},
      {"heartbeat", {T::kMembershipHeartbeat}},
      {"horizon", {T::kStabilityHorizon}},
      {"view",
       {T::kMembershipJoin, T::kMembershipJoinAck, T::kMembershipLeave,
        T::kMembershipWatch, T::kViewChange, T::kViewDelta,
        T::kViewFetchRequest, T::kViewFetchReply}},
      {"state",
       {T::kSnapshot, T::kSnapshotDeltaRequest, T::kSnapshotDeltaReply}},
      {"fetch", {T::kFetchRequest, T::kFetchReply}},
      {"anti_entropy", {T::kAntiEntropyRequest, T::kAntiEntropyReply}},
      {"subscribe", {T::kSubscribe, T::kSubscribeAck}},
  };
  return groups;
}

/// One measured write, followed until every replica that hosted its
/// object at issue time has applied it.
struct Track {
  ObjectId object = 0;
  std::string page;
  WriteId wid;
  util::SimTime due;
  std::vector<std::size_t> stores;     // candidate store indices
  std::vector<std::int64_t> cover_us;  // first poll that saw it; -1 = not yet
};

struct Deployment {
  std::unique_ptr<Testbed> bed;
  std::vector<ClientBinding*> clients;
  std::vector<ObjectId> objects;   // sharded objects
  std::vector<std::string> pages;  // page of each target
  std::map<ObjectId, SeedPage> seed_values;  // sharded
  std::unordered_set<std::string> known;  // every value written or seeded
  ObjectModel model = ObjectModel::kCausal;
  ClientModel session = ClientModel::kNone;
  std::unique_ptr<replication::TestbedFaultHost> fault_host;
  std::unique_ptr<fault::ScenarioEngine> engine;
  double place_s = 0;  // sharded: wall time inside place_objects
  bool single_object = true;
};

core::ReplicationPolicy causal_policy() {
  core::ReplicationPolicy policy;
  policy.model = ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  policy.initiative = core::TransferInitiative::kPush;
  return policy;
}

constexpr ClientModel kAllSessions =
    ClientModel::kMonotonicWrites | ClientModel::kReadYourWrites |
    ClientModel::kMonotonicReads | ClientModel::kWritesFollowReads;

/// The short link between a client and the cache it is bound to.
sim::LinkSpec access_link() {
  sim::LinkSpec access;
  access.base_latency = sim::SimDuration::millis(1);
  access.jitter = sim::SimDuration::micros(500);
  return access;
}

void seed_pages(Deployment& d, StoreEngine& primary, const Shape& shape) {
  for (std::size_t i = 0; i < shape.targets; ++i) {
    d.pages.push_back("page" + std::to_string(i) + ".html");
    const std::string value = padded("seed-" + d.pages.back(), shape.value_bytes);
    d.known.insert(value);
    primary.seed(d.pages.back(), value);
  }
}

/// Figure-2 layering: primary, mirrors under it, caches under the
/// mirrors, clients on short links to their caches.
void build_layered(Deployment& d, const Shape& shape, std::uint64_t seed) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.wan.base_latency = sim::SimDuration::millis(20);
  opts.wan.jitter = sim::SimDuration::millis(2);
  d.bed = std::make_unique<Testbed>(opts);
  Testbed& bed = *d.bed;
  d.model = ObjectModel::kCausal;
  d.session = kAllSessions;
  const auto policy = causal_policy();
  seed_pages(d, bed.add_primary(kObj, policy), shape);
  std::vector<net::Address> mirrors;
  for (int i = 0; i < 4; ++i) {
    mirrors.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
            .address());
  }
  bed.settle();
  std::vector<net::Address> caches;
  for (int i = 0; i < 120; ++i) {
    caches.push_back(bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                                   policy, mirrors[i % mirrors.size()])
                         .address());
  }
  bed.settle();
  for (std::size_t i = 0; i < shape.clients; ++i) {
    const net::Address cache = caches[i % caches.size()];
    ClientBinding& c = bed.add_client(kObj, d.session, cache);
    bed.net().set_link(c.address().node, cache.node, access_link());
    d.clients.push_back(&c);
  }
}

/// The layering of build_layered under membership, with a fault script
/// scaled to the measured phase.
void build_churn(Deployment& d, const Shape& shape, std::uint64_t seed) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(100);
  opts.failure_timeout = sim::SimDuration::millis(400);
  // Zero jitter between stores: with jitter and membership a causal
  // multi-master object splits into store groups that never exchange
  // writes (see CHANGES.md). Client access links keep their jitter.
  opts.wan.base_latency = sim::SimDuration::millis(5);
  opts.client_timeout = sim::SimDuration::millis(300);
  opts.client_retries = 6;
  d.bed = std::make_unique<Testbed>(opts);
  Testbed& bed = *d.bed;
  d.model = ObjectModel::kCausal;
  d.session = kAllSessions;
  auto policy = causal_policy();
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  seed_pages(d, bed.add_primary(kObj, policy), shape);
  constexpr int kMirrors = 4;
  constexpr int kCaches = 128;
  std::vector<net::Address> mirrors;
  for (int i = 0; i < kMirrors; ++i) {
    mirrors.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
            .address());
  }
  bed.settle();
  std::vector<net::Address> caches;
  for (int i = 0; i < kCaches; ++i) {
    caches.push_back(bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                                   policy, mirrors[i % mirrors.size()])
                         .address());
  }
  bed.settle();
  // The store backbone has no jitter; a client reaches its own cache over
  // its access link and any other store (after a rebind) over a WAN path
  // with jitter.
  sim::LinkSpec client_wan;
  client_wan.base_latency = sim::SimDuration::millis(5);
  client_wan.jitter = sim::SimDuration::millis(1);
  for (std::size_t i = 0; i < shape.clients; ++i) {
    const net::Address cache = caches[i % caches.size()];
    ClientBinding& c = bed.add_client(kObj, d.session, cache);
    for (const auto& store : bed.stores()) {
      bed.net().set_link(c.address().node, store->address().node,
                         store->address() == cache ? access_link()
                                                   : client_wan);
    }
    d.clients.push_back(&c);
  }

  // Three partition/heal cycles cutting off the last mirror with its
  // caches, a window of rolling crashes, and a flash join of 8 stores.
  // Times are fractions of the measured phase; the script does not
  // depend on the seed.
  const std::int64_t total_ms =
      (shape.interval * shape.ops).count_micros() / 1000;
  const auto at = [&](double frac) {
    return std::to_string(static_cast<std::int64_t>(
               frac * static_cast<double>(total_ms))) +
           "ms";
  };
  std::string side_a;
  std::string side_b = std::to_string(kMirrors);
  for (int s = 0; s <= kMirrors + kCaches; ++s) {
    const bool cut = s == kMirrors ||
                     (s > kMirrors && (s - kMirrors - 1) % kMirrors ==
                                          kMirrors - 1);
    if (cut && s != kMirrors) side_b += "," + std::to_string(s);
    if (!cut) side_a += (side_a.empty() ? "" : ",") + std::to_string(s);
  }
  std::string text;
  for (const double f : {0.10, 0.40, 0.70}) {
    text += "at " + at(f) + " partition " + side_a + "|" + side_b + "\n";
    text += "at " + at(f + 0.10) + " heal\n";
  }
  text += "at " + at(0.52) + " churn period=" + at(0.02) +
          " until=" + at(0.64) + " down=" + at(0.03) + " fraction=0.016\n";
  text += "at " + at(0.85) + " join 8\n";
  fault::ScenarioScript script;
  std::string error;
  if (!fault::ScenarioScript::parse(text, &script, &error)) {
    throw std::runtime_error("fault script did not parse: " + error);
  }
  d.fault_host = std::make_unique<replication::TestbedFaultHost>(bed);
  d.engine = std::make_unique<fault::ScenarioEngine>(std::move(script),
                                                     *d.fault_host, 47);
}

/// Many objects over four shards, one primary and one secondary each.
void build_sharded(Deployment& d, const Shape& shape, std::uint64_t seed) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.shards = 4;
  opts.wan.base_latency = sim::SimDuration::millis(20);
  opts.wan.jitter = sim::SimDuration::millis(2);
  // Placed clients record no history. The stores do: each object has its
  // own page, so an apply event's page names its object.
  d.bed = std::make_unique<Testbed>(opts);
  Testbed& bed = *d.bed;
  d.single_object = false;
  d.model = ObjectModel::kPram;
  d.session = ClientModel::kReadYourWrites;
  core::ReplicationPolicy policy;  // PRAM push
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  for (ShardId s = 0; s < 4; ++s) {
    bed.add_shard_store(s, naming::StoreClass::kPermanent, policy,
                        /*primary=*/true);
    bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
  }
  for (ObjectId id = 1; id <= shape.targets; ++id) d.objects.push_back(id);
  const auto t0 = Clock::now();
  bed.place_objects(d.objects);
  d.place_s = seconds_since(t0);
  for (const ObjectId id : d.objects) {
    const std::string value = padded("seed-" + std::to_string(id),
                                     shape.value_bytes);
    d.known.insert(value);
    d.pages.push_back("obj" + std::to_string(id) + ".html");
    d.seed_values[id] = {d.pages.back(), value};
    bed.primary(id).seed(id, d.pages.back(), value);
  }
  bed.settle();
  for (std::size_t c = 0; c < shape.clients; ++c) {
    d.clients.push_back(&bed.add_placed_client(d.session));
  }
}

/// Issues operations, records what clients saw, polls replica clocks.
class LoadGenerator {
 public:
  /// A traced generator also times its calls into the program and polls
  /// replica clocks.
  LoadGenerator(Deployment& d, bool traced) : d_(d), bed_(*d.bed), traced_(traced) {}

  /// `page` and `value` must outlive the round; `value` must already be
  /// in `d.known`.
  void write(ClientBinding& c, ObjectId object, const std::string& page,
             const std::string& value, bool measured) {
    const std::size_t slot = issued_ops_.size();
    {
      const Uncounted bookkeeping;
      const WriteId wid{c.id(), ++write_seq_[{c.id(), object}]};
      issued_ops_.push_back({&c, object, &page, &value, wid,
                             ++op_index_[c.id()], bed_.sim().now(), measured});
      if (measured) {
        ++measured_writes;
        track(object, page, wid, issued_ops_.back().due);
      }
      ++issued;
    }
    const auto t0 = traced_ ? Clock::now() : Clock::time_point{};
    // Two words, so std::function holds the callback without allocating.
    c.write(object, page, value, [this, slot](replication::WriteResult r) {
      on_write(issued_ops_[slot], std::move(r));
    });
    if (traced_) issue_s += seconds_since(t0);
  }

  /// `page` must outlive the round.
  void read(ClientBinding& c, ObjectId object, const std::string& page) {
    const std::size_t slot = issued_ops_.size();
    {
      const Uncounted bookkeeping;
      issued_ops_.push_back({&c, object, &page, nullptr, {},
                             ++op_index_[c.id()], bed_.sim().now(), true});
      ++issued;
    }
    const auto t0 = traced_ ? Clock::now() : Clock::time_point{};
    c.read(object, page, [this, slot](replication::ReadResult r) {
      on_read(issued_ops_[slot], std::move(r));
    });
    if (traced_) issue_s += seconds_since(t0);
  }

  /// Runs the simulator to `t`, polling replica clocks on the way.
  void advance_to(util::SimTime t) {
    while (traced_ && next_poll_ <= t) {
      run_until(next_poll_);
      poll(next_poll_);
      next_poll_ = next_poll_ + kPoll;
    }
    run_until(t);
  }

  /// Runs until every issued operation has completed and no foreground
  /// work is left.
  void drain() {
    for (int guard = 0; guard < 600; ++guard) {
      if (traced_) {
        while (!bed_.sim().idle()) advance_to(bed_.sim().now() + kPoll);
      }
      timed([&] { bed_.settle(); });
      if (completed >= issued) break;
      advance_to(bed_.sim().now() + sim::SimDuration::millis(100));
    }
    if (completed < issued) {
      result.report.fail(std::to_string(issued - completed) +
                         " operations never completed");
    }
    if (traced_) poll(bed_.sim().now());
  }

  void start_polling() { next_poll_ = bed_.sim().now(); }

  /// Visibility of each measured write, from the polled replica clocks:
  /// the time its last replica that was live at the end covered it.
  [[nodiscard]] metrics::Histogram visible_from_polls() const {
    metrics::Histogram out;
    for (const Track& t : tracks_) {
      std::int64_t last = -1;
      bool missing = false;
      for (std::size_t k = 0; k < t.stores.size(); ++k) {
        if (!live(t.stores[k])) continue;
        if (t.cover_us[k] < 0) missing = true;
        last = std::max(last, t.cover_us[k]);
      }
      if (!missing && last >= 0) {
        out.add(static_cast<double>(last - t.due.count_micros()) / 1000);
      }
    }
    return out;
  }

  /// Visibility of each measured write, from the history's apply events
  /// (an apply of the write, or a snapshot adoption covering it). With
  /// `exactly_once`, also checks that each live replica applied each
  /// measured write exactly once.
  [[nodiscard]] metrics::Histogram visible_from_history(bool exactly_once) {
    struct StoreApplies {
      std::unordered_map<std::uint64_t, std::pair<std::int64_t, int>> first;
      std::vector<const coherence::ApplyEvent*> snapshots;
    };
    // (writer, seq, page): placed clients number their writes per
    // object, and each sharded object has its own page.
    const auto key = [](const WriteId& w, coherence::PageId page) {
      return (static_cast<std::uint64_t>(w.client) << 48) ^
             (w.seq << 24) ^ page;
    };
    std::unordered_map<StoreId, StoreApplies> by_store;
    for (const auto& e : bed_.history().applies()) {
      StoreApplies& s = by_store[e.store];
      if (e.from_snapshot) {
        s.snapshots.push_back(&e);
        continue;
      }
      auto it = s.first.try_emplace(key(e.wid, e.page), e.at.count_micros(), 0)
                    .first;
      ++it->second.second;
    }
    metrics::Histogram out;
    for (const Track& t : tracks_) {
      const coherence::PageId page = bed_.history().intern(t.page);
      std::int64_t last = -1;
      bool missing = false;
      for (const std::size_t idx : t.stores) {
        if (!live(idx)) continue;
        const StoreId sid = bed_.stores()[idx]->id();
        const StoreApplies& s = by_store[sid];
        std::int64_t at = -1;
        if (auto it = s.first.find(key(t.wid, page)); it != s.first.end()) {
          at = it->second.first;
          if (exactly_once && it->second.second != 1) {
            result.report.fail(t.wid.str() + " applied " +
                               std::to_string(it->second.second) +
                               " times at store " + std::to_string(sid));
          }
        } else if (exactly_once) {
          result.report.fail(t.wid.str() + " never applied at store " +
                             std::to_string(sid));
        }
        for (const auto* e : s.snapshots) {
          // A snapshot adopted before the write was issued cannot hold it.
          // Only single-object rounds see snapshots after warm-up, so the
          // clock names the write's object.
          if (e->at >= t.due && e->deps.covers(t.wid)) {
            if (at < 0 || e->at.count_micros() < at) at = e->at.count_micros();
            break;
          }
        }
        if (at < 0) missing = true;
        last = std::max(last, at);
      }
      if (!missing && last >= 0) {
        out.add(static_cast<double>(last - t.due.count_micros()) / 1000);
      }
    }
    return out;
  }

  [[nodiscard]] bool live(std::size_t store_index) const {
    const StoreEngine& s = *bed_.stores()[store_index];
    return s.alive() && !s.departed();
  }

  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t measured_writes = 0;
  double issue_s = 0;  // wall time inside ClientBinding::read/write
  double drive_s = 0;  // wall time inside the simulator
  std::vector<ClientOp> ops;
  RoundResult result;

 private:
  /// One issued operation, as its callback needs it.
  struct Issued {
    ClientBinding* client = nullptr;
    ObjectId object = 0;
    const std::string* page = nullptr;
    const std::string* value = nullptr;  // writes only
    WriteId wid;                          // writes only
    std::uint64_t index = 0;              // per-client issue order
    util::SimTime due;
    bool measured = true;
  };

  void on_write(const Issued& op, replication::WriteResult r) {
    const Uncounted bookkeeping;
    ++completed;
    if (!r.ok) {
      fail(op.measured, "write " + op.wid.str() + " failed: " + r.error);
      return;
    }
    if (r.wid != op.wid) {
      result.report.fail("write acknowledged as " + r.wid.str() +
                         ", issued as " + op.wid.str());
    }
    if (op.measured) {
      result.write_ms.add((r.completed_at - op.due).count_millis());
    }
    ops.push_back(ClientOp{op.client->id(), op.object, op.index, true,
                           *op.page, *op.value, r.wid, r.global_seq, {}});
  }

  void on_read(const Issued& op, replication::ReadResult r) {
    const Uncounted bookkeeping;
    ++completed;
    if (!r.ok) {
      fail(true, "read of " + *op.page + " failed: " + r.error);
      return;
    }
    result.read_ms.add((r.completed_at - op.due).count_millis());
    ops.push_back(ClientOp{op.client->id(), op.object, op.index, false,
                           *op.page, std::move(r.content), {}, 0,
                           std::move(r.store_clock)});
  }

  void fail(bool measured, const std::string& what) {
    if (measured) {
      ++failed;
      if (result.failure_samples.size() < 8) {
        result.failure_samples.push_back(
            "t=" + std::to_string(bed_.sim().now().count_micros()) + "us " +
            what);
      }
    } else {
      result.report.fail("warm-up " + what);
    }
  }

  template <typename F>
  void timed(F&& f) {
    if (!traced_) {
      f();
      return;
    }
    const auto t0 = Clock::now();
    f();
    drive_s += seconds_since(t0);
  }

  void run_until(util::SimTime t) {
    timed([&] { bed_.sim().run_until(t); });
  }

  void track(ObjectId object, const std::string& page, WriteId wid,
             util::SimTime due) {
    Track t;
    t.object = object;
    t.page = page;
    t.wid = wid;
    t.due = due;
    if (d_.single_object) {
      for (std::size_t i = 0; i < bed_.stores().size(); ++i) {
        t.stores.push_back(i);
      }
    } else {
      const ShardId shard = bed_.placement().layout().shard_of(object);
      for (const StoreEngine* s : bed_.shard_stores(shard)) {
        t.stores.push_back(store_index(s));
      }
    }
    t.cover_us.assign(t.stores.size(), -1);
    for (std::size_t k = 0; traced_ && k < t.stores.size(); ++k) {
      pending_.emplace_back(tracks_.size(), k);
    }
    tracks_.push_back(std::move(t));
  }

  std::size_t store_index(const StoreEngine* s) {
    if (index_of_.empty()) {
      for (std::size_t i = 0; i < bed_.stores().size(); ++i) {
        index_of_[bed_.stores()[i].get()] = i;
      }
    }
    return index_of_.at(s);
  }

  void poll(util::SimTime now) {
    std::size_t keep = 0;
    for (const auto& [ti, k] : pending_) {
      Track& t = tracks_[ti];
      const StoreEngine& s = *bed_.stores()[t.stores[k]];
      if (s.has_object(t.object) && s.applied_clock(t.object).covers(t.wid)) {
        t.cover_us[k] = now.count_micros();
      } else {
        pending_[keep++] = {ti, k};
      }
    }
    pending_.resize(keep);
  }

  Deployment& d_;
  Testbed& bed_;
  bool traced_;
  util::SimTime next_poll_;
  std::map<std::pair<ClientId, ObjectId>, std::uint64_t> write_seq_;
  std::map<ClientId, std::uint64_t> op_index_;
  std::vector<Issued> issued_ops_;
  std::vector<Track> tracks_;
  std::vector<std::pair<std::size_t, std::size_t>> pending_;
  std::map<const StoreEngine*, std::size_t> index_of_;
};

std::vector<ReplicaState> live_replicas(const Deployment& d) {
  std::vector<ReplicaState> out;
  const std::set<ObjectId> placed(d.objects.begin(), d.objects.end());
  for (const auto& sp : d.bed->stores()) {
    const StoreEngine& s = *sp;
    if (!s.alive() || s.departed()) continue;
    for (const ObjectId obj : s.object_ids()) {
      if (d.single_object ? obj != kObj : placed.count(obj) == 0) continue;
      ReplicaState r;
      r.store = s.id();
      r.object = obj;
      r.applied = s.applied_clock(obj);
      const auto& doc = s.document(obj);
      for (const auto& page : doc.page_names()) {
        r.pages.emplace(page, doc.get(page)->content);
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

/// Counters read when the measured phase starts; per-layer counts are
/// deltas from these.
struct PhaseStart {
  metrics::MetricsSink sink;
  sim::TrafficStats net;
  std::uint64_t events = 0;
  std::uint64_t history = 0;
  std::uint64_t applied = 0;
  membership::MembershipStats membership;
  std::uint64_t resolves = 0;
  std::uint64_t rebinds = 0;

  explicit PhaseStart(const Deployment& d) {
    Testbed& bed = *d.bed;
    sink = bed.metrics();
    net = bed.net().stats();
    events = bed.sim().events_run();
    history = bed.history().size();
    for (const auto& s : bed.stores()) applied += s->writes_applied();
    if (bed.membership_enabled()) membership = bed.membership().stats();
    if (bed.sharded()) resolves = bed.placement().stats().resolves_served;
    for (const auto* c : d.clients) rebinds += c->rebinds();
  }
};

void fill_layers(Deployment& d, LoadGenerator& gen, RoundResult& res,
                 const PhaseStart& at, const AllocCounts& alloc,
                 double traced_ops_per_s, double phase_span_us) {
  Testbed& bed = *d.bed;
  auto& L = res.layers;
  const auto ops = static_cast<double>(res.attempted);
  const auto writes = static_cast<double>(std::max<std::uint64_t>(res.writes, 1));
  const auto& sink = bed.metrics();
  const auto& net = bed.net().stats();

  L["sim.events_per_op"] =
      static_cast<double>(bed.sim().events_run() - at.events) / ops;
  L["sim.drive_us_per_op"] = gen.drive_s * 1e6 / ops;

  L["net.sent_per_op"] = static_cast<double>(res.net_msgs) / ops;
  L["net.dropped_per_op"] =
      static_cast<double>(net.messages_dropped - at.net.messages_dropped) / ops;
  const double typed = static_cast<double>(sink.total_traffic().messages -
                                           at.sink.total_traffic().messages);
  L["net.untyped_msgs_per_op"] = (static_cast<double>(res.net_msgs) - typed) / ops;

  std::map<std::string, std::pair<double, double>> by_group;
  for (const auto& [name, types] : msg_groups()) {
    double msgs = 0;
    double bytes = 0;
    for (const auto t : types) {
      const auto id = static_cast<std::uint8_t>(t);
      metrics::TypeTraffic now{};
      metrics::TypeTraffic before{};
      if (auto it = sink.traffic_by_type().find(id);
          it != sink.traffic_by_type().end()) {
        now = it->second;
      }
      if (auto it = at.sink.traffic_by_type().find(id);
          it != at.sink.traffic_by_type().end()) {
        before = it->second;
      }
      msgs += static_cast<double>(now.messages - before.messages);
      bytes += static_cast<double>(now.bytes - before.bytes);
    }
    by_group[name] = {msgs / ops, bytes / ops};
    L["msg." + name + ".msgs_per_op"] = msgs / ops;
    L["msg." + name + ".bytes_per_op"] = bytes / ops;
  }

  std::uint64_t applied = 0;
  std::uint64_t retained = 0;
  std::uint64_t retained_bytes = 0;
  std::uint64_t rebinds = 0;
  LayerInputs in;
  in.model = d.model;
  std::size_t clock_width_sum = 0;
  for (const auto& sp : bed.stores()) {
    applied += sp->writes_applied();
    if (!sp->alive() || sp->departed()) continue;
    for (const ObjectId obj : sp->object_ids()) {
      retained += sp->write_log(obj).size();
      retained_bytes += sp->write_log(obj).retained_bytes();
    }
    in.clocks.push_back(sp->applied_clock(d.single_object ? kObj
                                                          : sp->object_ids().front()));
  }
  for (const auto* c : d.clients) rebinds += c->rebinds();
  L["replication.issue_us_per_op"] = gen.issue_s * 1e6 / ops;
  L["replication.applies_per_write"] =
      static_cast<double>(applied - at.applied) / writes;
  L["replication.log_records_retained"] = static_cast<double>(retained);
  L["replication.log_bytes_retained"] = static_cast<double>(retained_bytes);
  L["replication.log_compactions_per_op"] =
      static_cast<double>(sink.log_compactions() - at.sink.log_compactions()) / ops;
  L["replication.snapshot_cutovers"] =
      static_cast<double>(sink.snapshot_cutovers() - at.sink.snapshot_cutovers());
  L["replication.session_waits_per_op"] =
      static_cast<double>(sink.session_waits() - at.sink.session_waits()) / ops;
  L["replication.session_demands_per_op"] =
      static_cast<double>(sink.session_demands() - at.sink.session_demands()) /
      ops;
  L["replication.rebinds"] = static_cast<double>(rebinds - at.rebinds);

  L["web.delta_transfers"] =
      static_cast<double>(sink.delta_snapshots() - at.sink.delta_snapshots());
  L["web.full_transfers"] =
      static_cast<double>(sink.full_snapshots() - at.sink.full_snapshots());
  L["web.pages_shipped"] = static_cast<double>(sink.snapshot_pages_shipped() -
                                               at.sink.snapshot_pages_shipped());
  L["web.tombstones_collected"] = static_cast<double>(
      sink.tombstones_collected() - at.sink.tombstones_collected());

  // The write stream: the records the primaries logged.
  if (d.single_object) {
    const auto& recs = bed.primary(kObj).write_log(kObj).retained();
    in.stream.assign(recs.begin(), recs.end());
    in.document = bed.primary(kObj).document(kObj);
    in.history = &bed.history();
    for (const auto* c : d.clients) in.specs.push_back({c->id(), d.session});
  } else {
    for (const ObjectId obj : d.objects) {
      const auto& recs = bed.primary(obj).write_log(obj).retained();
      in.stream.insert(in.stream.end(), recs.begin(), recs.end());
    }
    in.document = bed.primary(d.objects.front()).document(d.objects.front());
    in.layout = bed.placement().layout();
    in.objects = d.objects;
  }
  for (const auto& op : gen.ops) {
    if (!op.is_write) in.clocks.push_back(op.store_clock);
  }
  for (const auto& rec : in.stream) clock_width_sum += rec.deps.size();
  in.members = bed.stores().size();
  in.sim_events = bed.sim().events_run() - at.events;
  in.sim_span_us = phase_span_us;

  L["coherence.history_events_per_op"] =
      static_cast<double>(bed.history().size() - at.history) / ops;
  L["coherence.clock_width_mean"] =
      in.stream.empty() ? 0
                        : static_cast<double>(clock_width_sum) /
                              static_cast<double>(in.stream.size());

  membership::MembershipStats mem{};
  if (bed.membership_enabled()) mem = bed.membership().stats();
  L["membership.view_changes"] =
      static_cast<double>(mem.view_changes - at.membership.view_changes);
  L["membership.evictions"] = static_cast<double>(mem.evictions - at.membership.evictions);
  L["membership.rejoins"] = static_cast<double>(mem.rejoins - at.membership.rejoins);
  L["membership.horizon_advances"] =
      static_cast<double>(mem.horizon_advances - at.membership.horizon_advances);
  L["membership.view_fetches"] =
      static_cast<double>(mem.view_fetches - at.membership.view_fetches);

  const std::uint64_t resolves =
      bed.sharded() ? bed.placement().stats().resolves_served : 0;
  L["placement.place_us_per_object"] =
      d.objects.empty() ? 0
                        : d.place_s * 1e6 / static_cast<double>(d.objects.size());
  L["placement.resolves_served"] = static_cast<double>(resolves - at.resolves);

  L["fault.crashes"] =
      d.engine ? static_cast<double>(d.engine->stats().crashes) : 0;
  L["fault.partitions"] =
      d.engine ? static_cast<double>(d.engine->stats().partitions) : 0;

  L["alloc.per_op"] = static_cast<double>(alloc.calls) / ops;
  L["alloc.bytes_per_op"] = static_cast<double>(alloc.bytes) / ops;
  L["traced.ops_per_s"] = traced_ops_per_s;

  const auto ns = time_layers(in);
  for (const auto& [k, v] : ns) L[k] = v;

  // Attribution: each layer's isolated per-call time times its calls per
  // operation, from the counts above.
  const double applies_per_op = static_cast<double>(applied - at.applied) / ops;
  const double writes_per_op = writes / ops;
  std::map<std::string, double> attrib;
  attrib["sim"] = ns.at("sim.dispatch_ns") * L["sim.events_per_op"];
  attrib["msg"] = ns.at("msg.update_encode_ns") * writes_per_op +
                  ns.at("msg.update_decode_ns") * by_group["update"].first +
                  ns.at("msg.notify_encode_ns") * by_group["notify"].first;
  attrib["replication"] =
      (ns.at("replication.log_append_ns") +
       ns.at("replication.causal_order_ns")) * applies_per_op +
      ns.at("replication.records_since_ns") *
          (by_group["fetch"].first + by_group["anti_entropy"].first) / 2;
  attrib["web"] =
      ns.at("web.apply_ns") * applies_per_op +
      ns.at("web.snapshot_encode_ns") * L["web.full_transfers"] / ops +
      ns.at("web.delta_encode_ns") * L["web.delta_transfers"] / ops;
  attrib["coherence"] =
      ns.at("coherence.clock_merge_ns") * applies_per_op +
      ns.at("coherence.clock_floor_ns") *
          static_cast<double>(std::max<std::size_t>(in.members, 1) - 1) *
          by_group["heartbeat"].first;
  attrib["placement"] = ns.at("placement.shard_of_ns") *
                        L["placement.resolves_served"] / ops;
  double attributed = 0;
  for (const auto& [layer, v] : attrib) {
    L["attrib." + layer + ".us_per_op"] = v / 1000;
    attributed += v / 1000;
  }
  L["attrib.unattributed.us_per_op"] =
      L["sim.drive_us_per_op"] + L["replication.issue_us_per_op"] - attributed;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  static const std::map<std::string, Workload> names = {
      {"layered_sessions", Workload::kLayeredSessions},
      {"sharded_objects", Workload::kShardedObjects},
      {"membership_churn", Workload::kMembershipChurn},
  };
  auto it = names.find(name);
  if (it == names.end()) return false;
  *out = it->second;
  return true;
}

RoundResult run_round(Workload w, std::uint64_t round_seed, bool traced) {
  const Shape shape = shape_of(w);
  util::Rng rng(round_seed);
  const std::vector<PlannedOp> plan = plan_ops(shape, rng);

  // ---- set-up: stand up, seed, bind, warm up --------------------------
  const auto setup_t0 = Clock::now();
  Deployment d;
  switch (w) {
    case Workload::kLayeredSessions:
      build_layered(d, shape, rng.next());
      break;
    case Workload::kShardedObjects:
      build_sharded(d, shape, rng.next());
      break;
    case Workload::kMembershipChurn:
      build_churn(d, shape, rng.next());
      break;
  }
  Testbed& bed = *d.bed;
  LoadGenerator gen(d, traced);
  const auto target_name = [&](std::uint32_t target) -> const std::string& {
    return d.pages[target];
  };
  const auto target_object = [&](std::uint32_t target) {
    return d.single_object ? kObj : d.objects[target];
  };
  std::vector<std::string> warm_values(d.clients.size());
  for (std::size_t c = 0; c < d.clients.size(); ++c) {
    const auto target = static_cast<std::uint32_t>(rng.below(shape.targets));
    warm_values[c] = padded("warm-c" + std::to_string(c) + "-r" +
                                std::to_string(round_seed),
                            shape.value_bytes);
    d.known.insert(warm_values[c]);
    gen.write(*d.clients[c], target_object(target), target_name(target),
              warm_values[c], /*measured=*/false);
  }
  gen.drain();
  RoundResult& res = gen.result;
  res.setup_s = seconds_since(setup_t0);
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  res.setup_end_cpu_s = static_cast<double>(cpu.tv_sec) +
                        static_cast<double>(cpu.tv_nsec) * 1e-9;

  // ---- measured phase --------------------------------------------------
  const PhaseStart at(d);
  // Written values are made, and entered as known, before the clock starts.
  std::vector<std::string> values(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (!plan[i].write) continue;
    values[i] = padded("c" + std::to_string(d.clients[plan[i].client]->id()) +
                           "-o" + std::to_string(i) + "-r" +
                           std::to_string(round_seed),
                       shape.value_bytes);
    d.known.insert(values[i]);
  }

  const util::SimTime start = bed.sim().now();
  if (d.engine) d.engine->arm(bed.sim());
  gen.start_polling();
  if (traced) set_alloc_counting(true);
  const AllocCounts alloc0 = alloc_counts();
  const auto op_t0 = Clock::now();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlannedOp& op = plan[i];
    gen.advance_to(start + op.due);
    ClientBinding& c = *d.clients[op.client];
    if (op.write) {
      gen.write(c, target_object(op.target), target_name(op.target),
                values[i], /*measured=*/true);
    } else {
      gen.read(c, target_object(op.target), target_name(op.target));
    }
  }
  gen.drain();
  res.op_wall_s = seconds_since(op_t0);
  AllocCounts alloc = alloc_counts();
  alloc.calls -= alloc0.calls;
  alloc.bytes -= alloc0.bytes;
  set_alloc_counting(false);
  const double phase_span_us =
      static_cast<double>((bed.sim().now() - start).count_micros());
  res.attempted = plan.size();
  res.failed = gen.failed;
  res.writes = gen.measured_writes;
  res.net_msgs = bed.net().stats().messages_sent - at.net.messages_sent;
  res.net_bytes = bed.net().stats().bytes_sent - at.net.bytes_sent;

  // Let the fault script finish (heals, recoveries) and the replicas
  // resync before judging the final state.
  if (d.engine) {
    const util::SimTime script_end = start + d.engine->duration() +
                                     sim::SimDuration::seconds(3);
    if (bed.sim().now() < script_end) gen.advance_to(script_end);
    gen.drain();
  }

  // ---- visibility ------------------------------------------------------
  res.visible_ms =
      gen.visible_from_history(traced && w == Workload::kLayeredSessions);
  if (traced) {
    const auto polled = gen.visible_from_polls();
    const double step = kPoll.count_millis();
    for (const double p : {50.0, 99.0}) {
      const double a = res.visible_ms.percentile(p);
      const double b = polled.percentile(p);
      if (polled.count() != res.visible_ms.count() || b < a - 1e-9 ||
          b > a + step + 1e-9) {
        res.report.fail("visible p" + std::to_string(static_cast<int>(p)) +
                        ": history " + std::to_string(a) + " ms, polls " +
                        std::to_string(b) + " ms (" +
                        std::to_string(res.visible_ms.count()) + " vs " +
                        std::to_string(polled.count()) + " writes)");
      }
    }
  }
  if (res.visible_ms.count() != res.writes) {
    res.report.fail(std::to_string(res.writes - res.visible_ms.count()) +
                    " measured writes never reached every live replica");
  }

  // ---- correctness -----------------------------------------------------
  const auto replicas = live_replicas(d);
  check_replicas_agree(replicas, res.report);
  check_values_known(replicas, gen.ops, d.known, res.report);
  check_acks_covered(replicas, gen.ops, res.report);
  check_client_sessions(gen.ops, res.report);
  if (d.single_object) {
    const auto model = coherence::check_object_model(bed.history(), d.model);
    if (!model.ok) {
      res.report.fail("check_object_model: " + model.summary());
    }
    std::vector<coherence::SessionSpec> specs;
    for (const auto* c : d.clients) specs.push_back({c->id(), d.session});
    for (const auto& r : coherence::check_sessions(bed.history(), specs)) {
      if (!r.ok) res.report.fail("check_sessions: " + r.summary());
    }
  } else {
    check_last_ordered(replicas, gen.ops, d.seed_values, res.report);
  }
  if (traced && w == Workload::kLayeredSessions) {
    // Every sender on this deployment reports to the metrics sink, so
    // its per-type totals must add up to the network's.
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    for (const auto& [type, t] : bed.metrics().traffic_by_type()) {
      msgs += t.messages;
      bytes += t.bytes;
    }
    if (msgs != bed.net().stats().messages_sent ||
        bytes != bed.net().stats().bytes_sent) {
      res.report.fail("metrics sink counted " + std::to_string(msgs) +
                      " msgs / " + std::to_string(bytes) +
                      " B, network sent " +
                      std::to_string(bed.net().stats().messages_sent) +
                      " / " + std::to_string(bed.net().stats().bytes_sent));
    }
  }

  if (traced) {
    fill_layers(d, gen, res, at, alloc,
                static_cast<double>(res.attempted) / res.op_wall_s,
                phase_span_us);
  }
  // Tear the deployment down while the generator its callbacks point at is
  // still alive.
  RoundResult out = std::move(gen.result);
  d.engine.reset();
  d.fault_host.reset();
  d.bed.reset();
  return out;
}

}  // namespace perfbench
