#include "checks.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

constexpr std::size_t kKeptMessages = 8;

std::string where(const ReplicaState& r) {
  return "store " + std::to_string(r.store) + " object " +
         std::to_string(r.object);
}

}  // namespace

void Report::fail(std::string what) {
  ++failures_;
  if (messages_.size() < kKeptMessages) messages_.push_back(std::move(what));
}

void check_replicas_agree(const std::vector<ReplicaState>& replicas,
                          Report& report) {
  std::map<ObjectId, const ReplicaState*> reference;
  for (const auto& r : replicas) {
    auto [it, first] = reference.emplace(r.object, &r);
    if (first) continue;
    const ReplicaState& ref = *it->second;
    if (r.pages == ref.pages) continue;
    std::size_t differing = 0;
    for (const auto& [page, content] : ref.pages) {
      auto p = r.pages.find(page);
      if (p == r.pages.end() || p->second != content) ++differing;
    }
    for (const auto& [page, content] : r.pages) {
      if (ref.pages.count(page) == 0) ++differing;
    }
    report.fail("replicas differ: " + where(r) + " has " +
                std::to_string(differing) + " pages unlike store " +
                std::to_string(ref.store));
  }
}

void check_values_known(const std::vector<ReplicaState>& replicas,
                        const std::vector<ClientOp>& ops,
                        const std::unordered_set<std::string>& known,
                        Report& report) {
  for (const auto& r : replicas) {
    for (const auto& [page, content] : r.pages) {
      if (known.count(content) == 0) {
        report.fail("unknown value on " + where(r) + " page " + page);
      }
    }
  }
  for (const auto& op : ops) {
    if (!op.is_write && known.count(op.value) == 0) {
      report.fail("client " + std::to_string(op.client) + " read " +
                  op.page + " and got a value never written");
    }
  }
}

void check_acks_covered(const std::vector<ReplicaState>& replicas,
                        const std::vector<ClientOp>& ops, Report& report) {
  std::map<ObjectId, std::vector<const ReplicaState*>> by_object;
  for (const auto& r : replicas) by_object[r.object].push_back(&r);
  for (const auto& op : ops) {
    if (!op.is_write) continue;
    auto it = by_object.find(op.object);
    if (it == by_object.end()) {
      report.fail("acknowledged " + op.wid.str() + " on object " +
                  std::to_string(op.object) + " which has no live replica");
      continue;
    }
    for (const ReplicaState* r : it->second) {
      if (!r->applied.covers(op.wid)) {
        report.fail("acknowledged " + op.wid.str() + " missing from " +
                    where(*r) + " applied clock");
      }
    }
  }
}

void check_client_sessions(const std::vector<ClientOp>& ops, Report& report) {
  std::map<std::pair<ClientId, ObjectId>, std::vector<const ClientOp*>>
      sessions;
  for (const auto& op : ops) sessions[{op.client, op.object}].push_back(&op);
  for (auto& [key, list] : sessions) {
    std::sort(list.begin(), list.end(),
              [](const ClientOp* a, const ClientOp* b) {
                return a->index < b->index;
              });
    std::uint64_t written = 0;  // highest own write seq issued so far
    const VectorClock* last_read = nullptr;
    for (const ClientOp* op : list) {
      if (op->is_write) {
        written = std::max(written, op->wid.seq);
        continue;
      }
      const std::string who = "client " + std::to_string(key.first) +
                              " object " + std::to_string(key.second) +
                              " op " + std::to_string(op->index);
      if (op->store_clock.get(key.first) < written) {
        report.fail("read-your-writes: " + who + " saw " +
                    std::to_string(op->store_clock.get(key.first)) +
                    " of its " + std::to_string(written) + " writes");
      }
      if (last_read != nullptr && !op->store_clock.dominates(*last_read)) {
        report.fail("monotonic reads: " + who + " store clock " +
                    op->store_clock.str() + " regressed from " +
                    last_read->str());
      }
      last_read = &op->store_clock;
    }
  }
}

void check_last_ordered(const std::vector<ReplicaState>& replicas,
                        const std::vector<ClientOp>& ops,
                        const std::map<ObjectId, SeedPage>& seeds,
                        Report& report) {
  std::map<ObjectId, const ClientOp*> last;
  for (const auto& op : ops) {
    if (!op.is_write) continue;
    const ClientOp*& cur = last[op.object];
    if (cur != nullptr && cur->global_seq == op.global_seq) {
      report.fail("object " + std::to_string(op.object) + ": " +
                  cur->wid.str() + " and " + op.wid.str() +
                  " were acknowledged at the same global seq");
    }
    if (cur == nullptr || op.global_seq > cur->global_seq) cur = &op;
  }
  for (const auto& r : replicas) {
    auto seed = seeds.find(r.object);
    if (seed == seeds.end()) {
      report.fail(where(r) + " was not seeded");
      continue;
    }
    const std::string& page = seed->second.page;
    auto it = last.find(r.object);
    const std::string& expected =
        it != last.end() ? it->second->value : seed->second.value;
    auto p = r.pages.find(page);
    if (r.pages.size() != 1 || p == r.pages.end() || p->second != expected) {
      report.fail(where(r) + " does not hold the last ordered write of " +
                  page);
    }
  }
}

}  // namespace perfbench
