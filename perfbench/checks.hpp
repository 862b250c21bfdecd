// Correctness checks the benchmark makes on its own, apart from the
// program's checkers. Each works on plain records the benchmark copied
// out of a finished run (replica documents and clocks, the results its
// clients received), so the self-tests can feed them corrupted inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/coherence/write_id.hpp"
#include "globe/util/ids.hpp"

namespace perfbench {

using globe::ClientId;
using globe::ObjectId;
using globe::StoreId;
using globe::coherence::VectorClock;
using globe::coherence::WriteId;

/// One live replica of one object at the end of a run.
struct ReplicaState {
  StoreId store = 0;
  ObjectId object = 0;
  std::map<std::string, std::string> pages;  // page -> content
  VectorClock applied;
};

/// One completed client operation, as the client saw it. `index` is the
/// client's issue order (program order), assigned by the benchmark.
struct ClientOp {
  ClientId client = 0;
  ObjectId object = 0;
  std::uint64_t index = 0;
  bool is_write = false;
  std::string page;
  std::string value;         // written or returned content
  WriteId wid;               // writes: the acknowledged write
  std::uint64_t global_seq = 0;  // writes: the order the store acknowledged
  VectorClock store_clock;   // reads: the serving store's applied clock
};

class Report {
 public:
  void fail(std::string what);
  [[nodiscard]] bool ok() const { return failures_ == 0; }
  [[nodiscard]] std::size_t failures() const { return failures_; }
  /// The first few failure messages (the rest are only counted).
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::size_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Every replica of an object holds exactly the pages of the object's
/// first listed replica.
void check_replicas_agree(const std::vector<ReplicaState>& replicas,
                          Report& report);

/// Every page value a replica holds or a read returned is in `known`
/// (the values the benchmark wrote, and the seed values).
void check_values_known(const std::vector<ReplicaState>& replicas,
                        const std::vector<ClientOp>& ops,
                        const std::unordered_set<std::string>& known,
                        Report& report);

/// Every acknowledged write is covered by the applied clock of every
/// replica of its object.
void check_acks_covered(const std::vector<ReplicaState>& replicas,
                        const std::vector<ClientOp>& ops, Report& report);

/// Read-your-writes and monotonic reads per client and object, from the
/// clients' own records: a read covers every earlier write of its client
/// on that object, and its store clock dominates the client's earlier
/// reads of that object.
void check_client_sessions(const std::vector<ClientOp>& ops, Report& report);

/// The one page of a single-page object and the value it was seeded with.
struct SeedPage {
  std::string page;
  std::string value;
};

/// Single-master, single-page objects: each replica's page equals the
/// value of the acknowledged write the primary ordered last (highest
/// global seq), or the seed value when the object was never written.
void check_last_ordered(const std::vector<ReplicaState>& replicas,
                        const std::vector<ClientOp>& ops,
                        const std::map<ObjectId, SeedPage>& seeds,
                        Report& report);

}  // namespace perfbench
