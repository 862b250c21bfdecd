// Self-tests for the benchmark's own correctness checks: each check passes
// on a consistent run record and fails on a corrupted copy of it.
//
//   perfbench_selftest    (exit 0 when every case behaves as expected)
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++g_failures;
}

VectorClock clock_of(std::initializer_list<std::pair<ClientId, std::uint64_t>> e) {
  VectorClock c;
  for (const auto& [client, v] : e) c.set(client, v);
  return c;
}

/// A consistent two-client, two-replica run record.
struct Fixture {
  std::vector<ReplicaState> replicas;
  std::vector<ClientOp> ops;
  std::unordered_set<std::string> known{"seed-a", "seed-b", "v1", "v2", "v3"};
  std::map<ObjectId, SeedPage> seeds{{1, {"page.html", "seed-a"}},
                                     {2, {"page.html", "seed-b"}}};

  Fixture() {
    for (const StoreId s : {1u, 2u}) {
      replicas.push_back(
          {s, 1, {{"page.html", "v3"}}, clock_of({{7, 2}, {8, 1}})});
      replicas.push_back({s, 2, {{"page.html", "seed-b"}}, VectorClock{}});
    }
    ops = {
        {7, 1, 1, true, "page.html", "v1", {7, 1}, 1, {}},
        {7, 1, 2, false, "page.html", "v1", {}, 0, clock_of({{7, 1}})},
        {8, 1, 1, true, "page.html", "v2", {8, 1}, 2, {}},
        {7, 1, 3, true, "page.html", "v3", {7, 2}, 3, {}},
        {7, 1, 4, false, "page.html", "v3", {}, 0,
         clock_of({{7, 2}, {8, 1}})},
        {8, 1, 2, false, "page.html", "v3", {}, 0,
         clock_of({{7, 2}, {8, 1}})},
        {8, 2, 3, false, "page.html", "seed-b", {}, 0, VectorClock{}},
    };
  }
};

/// Runs every check on the fixture, as the benchmark does.
Report check_all(const Fixture& f) {
  Report r;
  check_replicas_agree(f.replicas, r);
  check_values_known(f.replicas, f.ops, f.known, r);
  check_acks_covered(f.replicas, f.ops, r);
  check_client_sessions(f.ops, r);
  check_last_ordered(f.replicas, f.ops, f.seeds, r);
  return r;
}

void one_check_fails(const std::string& name,
                     const std::function<void(Fixture&)>& corrupt,
                     const std::function<void(const Fixture&, Report&)>& check) {
  Fixture f;
  Report clean;
  check(f, clean);
  corrupt(f);
  Report bad;
  check(f, bad);
  expect(clean.ok() && !bad.ok(),
         name + (bad.messages().empty() ? "" : ": " + bad.messages().front()));
}

}  // namespace

int main() {
  expect(check_all(Fixture{}).ok(), "consistent record passes every check");

  one_check_fails(
      "replica document altered",
      [](Fixture& f) { f.replicas[2].pages["page.html"] = "v1"; },
      [](const Fixture& f, Report& r) { check_replicas_agree(f.replicas, r); });
  one_check_fails(
      "replica holds an extra page",
      [](Fixture& f) { f.replicas[2].pages["other.html"] = "v1"; },
      [](const Fixture& f, Report& r) { check_replicas_agree(f.replicas, r); });
  one_check_fails(
      "replica holds a value never written",
      [](Fixture& f) {
        for (auto& r : f.replicas) {
          if (r.object == 1) r.pages["page.html"] = "forged";
        }
      },
      [](const Fixture& f, Report& r) {
        check_values_known(f.replicas, f.ops, f.known, r);
      });
  one_check_fails(
      "read returns a value never written",
      [](Fixture& f) { f.ops[4].value = "forged"; },
      [](const Fixture& f, Report& r) {
        check_values_known(f.replicas, f.ops, f.known, r);
      });
  one_check_fails(
      "acknowledged write removed from one replica's clock",
      [](Fixture& f) { f.replicas[2].applied.set(8, 0); },
      [](const Fixture& f, Report& r) {
        check_acks_covered(f.replicas, f.ops, r);
      });
  one_check_fails(
      "read misses the client's own earlier write",
      [](Fixture& f) { f.ops[4].store_clock = clock_of({{7, 1}, {8, 1}}); },
      [](const Fixture& f, Report& r) { check_client_sessions(f.ops, r); });
  one_check_fails(
      "read whose store clock regresses",
      [](Fixture& f) {
        f.ops[1].store_clock = clock_of({{7, 1}, {8, 1}});
        f.ops[4].store_clock = clock_of({{7, 2}});
      },
      [](const Fixture& f, Report& r) { check_client_sessions(f.ops, r); });
  one_check_fails(
      "final page is not the last ordered write",
      [](Fixture& f) {
        for (auto& r : f.replicas) {
          if (r.object == 1) r.pages["page.html"] = "v2";
        }
      },
      [](const Fixture& f, Report& r) {
        check_last_ordered(f.replicas, f.ops, f.seeds, r);
      });
  one_check_fails(
      "unwritten object lost its seed value",
      [](Fixture& f) { f.replicas[1].pages["page.html"] = "v1"; },
      [](const Fixture& f, Report& r) {
        check_last_ordered(f.replicas, f.ops, f.seeds, r);
      });

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
