#include "layers.hpp"

#include <algorithm>
#include <cstdint>

#include "globe/replication/orderer.hpp"
#include "globe/replication/protocol.hpp"
#include "globe/replication/write_log.hpp"
#include "globe/sim/simulator.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

using namespace globe;
using coherence::VectorClock;

// Each figure repeats its pass over the inputs until this much wall time
// has gone by, so a short input still gives a steady per-call time.
constexpr double kMinTimedS = 0.02;

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

/// ns per call of `pass`, where one pass makes `calls` calls.
template <typename Pass>
double ns_per_call(std::size_t calls, Pass&& pass) {
  if (calls == 0) return 0;
  std::size_t passes = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    pass();
    ++passes;
    elapsed = seconds_since(t0);
  } while (elapsed < kMinTimedS);
  return elapsed * 1e9 / static_cast<double>(passes * calls);
}

double dispatch_ns(const LayerInputs& in) {
  const std::size_t events = std::clamp<std::uint64_t>(in.sim_events, 1000,
                                                       200000);
  const double gap_us =
      in.sim_events > 0 ? in.sim_span_us / static_cast<double>(in.sim_events)
                        : 1.0;
  return ns_per_call(events, [&] {
    sim::Simulator sim;
    std::uint64_t ran = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_at(
          util::SimTime(static_cast<std::int64_t>(static_cast<double>(i) *
                                                  gap_us)),
          [&ran] { ++ran; });
    }
    sim.run();
    g_sink = g_sink + ran;
  });
}

/// Clock after each prefix of the stream (the `have` of a requester that
/// holds that prefix).
std::vector<VectorClock> prefix_clocks(
    const std::vector<web::WriteRecord>& stream, std::size_t count) {
  std::vector<VectorClock> out;
  if (stream.empty()) return out;
  const std::size_t step = std::max<std::size_t>(1, stream.size() / count);
  VectorClock c;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    c.observe(stream[i].wid);
    if (i % step == 0) out.push_back(c);
  }
  return out;
}

}  // namespace

std::map<std::string, double> time_layers(const LayerInputs& in) {
  std::map<std::string, double> out;
  const auto& stream = in.stream;
  const std::size_t n = stream.size();
  const std::size_t nclocks = in.clocks.size();
  const auto clock_at = [&](std::size_t i) -> const VectorClock& {
    static const VectorClock kEmpty;
    return nclocks == 0 ? kEmpty : in.clocks[i % nclocks];
  };

  out["sim.dispatch_ns"] = dispatch_ns(in);

  // msg: the update and notify codecs on the round's records and clocks.
  std::vector<util::Buffer> encoded(n);
  out["msg.update_encode_ns"] = ns_per_call(n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      replication::UpdateMsg m;
      m.records.push_back(stream[i]);
      m.sender_clock = clock_at(i);
      m.sender_gseq = stream[i].global_seq;
      encoded[i] = m.encode();
    }
  });
  out["msg.update_decode_ns"] = ns_per_call(n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const auto m = replication::UpdateMsg::decode(util::BytesView(encoded[i]));
      g_sink = g_sink + m.records.size();
    }
  });
  out["msg.notify_encode_ns"] = ns_per_call(nclocks, [&] {
    for (std::size_t i = 0; i < nclocks; ++i) {
      replication::NotifyMsg m;
      m.known_clock = in.clocks[i];
      g_sink = g_sink + m.encode().size();
    }
  });

  // replication: write-log append and delta queries, the orderer.
  out["replication.log_append_ns"] = ns_per_call(n, [&] {
    replication::WriteLog log;
    for (const auto& rec : stream) log.append(rec);
    g_sink = g_sink + log.size();
  });
  {
    replication::WriteLog log;
    for (const auto& rec : stream) log.append(rec);
    const auto haves = prefix_clocks(stream, 64);
    out["replication.records_since_ns"] = ns_per_call(haves.size(), [&] {
      for (const auto& have : haves) {
        g_sink = g_sink + log.records_since(have, 0).size();
      }
    });
  }
  out["replication.causal_order_ns"] = ns_per_call(n, [&] {
    auto orderer = replication::make_orderer(in.model);
    std::vector<web::WriteRecord> ready;
    for (const auto& rec : stream) {
      ready.clear();
      orderer->admit(rec, ready);
    }
    g_sink = g_sink + ready.size();
  });

  // web: document apply, snapshot and delta encodes.
  out["web.apply_ns"] = ns_per_call(n, [&] {
    web::WebDocument doc;
    for (const auto& rec : stream) doc.apply(rec);
    g_sink = g_sink + doc.page_count();
  });
  out["web.snapshot_encode_ns"] = ns_per_call(1, [&] {
    g_sink = g_sink + in.document.encode_snapshot().size();
  });
  {
    // A replica that applied the first half of the document's writes.
    web::WebDocument older;
    for (std::size_t i = 0; i < n / 2; ++i) {
      if (in.document.has(stream[i].page)) older.apply(stream[i]);
    }
    const auto have = older.summarize();
    out["web.delta_encode_ns"] = ns_per_call(1, [&] {
      g_sink = g_sink + in.document.encode_delta(have).size();
    });
  }

  // coherence: clock merge, the horizon floor at the run's member count,
  // and the program's post-hoc checkers over the recorded history.
  out["coherence.clock_merge_ns"] = ns_per_call(nclocks, [&] {
    for (std::size_t i = 0; i < nclocks; ++i) {
      VectorClock m = in.clocks[i];
      m.merge(clock_at(i * 7 + 3));
      g_sink = g_sink + m.size();
    }
  });
  const std::size_t members = std::max<std::size_t>(in.members, 2);
  out["coherence.clock_floor_ns"] = ns_per_call(members - 1, [&] {
    VectorClock floor = clock_at(0);
    for (std::size_t k = 1; k < members; ++k) floor.floor_with(clock_at(k));
    g_sink = g_sink + floor.size();
  });
  double check_ns = 0;
  if (in.history != nullptr && in.history->size() > 0) {
    const auto t0 = Clock::now();
    const auto model = coherence::check_object_model(*in.history, in.model);
    const auto sessions = coherence::check_sessions(*in.history, in.specs);
    check_ns = seconds_since(t0) * 1e9 /
               static_cast<double>(in.history->size());
    g_sink = g_sink + model.events_checked + sessions.size();
  }
  out["coherence.check_ns_per_event"] = check_ns;

  // placement: the rendezvous lookup over the round's objects (none on
  // single-object rounds, which read 0).
  out["placement.shard_of_ns"] = ns_per_call(in.objects.size(), [&] {
    for (const ObjectId id : in.objects) {
      g_sink = g_sink + in.layout.shard_of(id);
    }
  });
  return out;
}

}  // namespace perfbench
