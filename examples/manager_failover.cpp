// Manager-failure drill: the two recovery paths of paper §IV.A working
// together — (1) benefactor-assisted recovery of a write whose chunk map
// never reached the manager, and (2) hot-standby failover from a metadata
// snapshot.
//
//   ./build/examples/manager_failover
#include <cstdio>

#include "common/rng.h"
#include "core/cluster.h"

using namespace stdchk;

int main() {
  ClusterOptions options;
  options.benefactor_count = 6;
  options.client.stripe_width = 3;
  options.client.chunk_size = 1_MiB;
  StdchkCluster cluster(options);
  Rng rng(8);

  // --- Normal operation, with periodic metadata snapshots (hot standby).
  Bytes t1 = rng.RandomBytes(8_MiB);
  (void)cluster.client().WriteFile(CheckpointName{"job", "n0", 1}, t1);
  Bytes standby_snapshot = cluster.manager().SaveSnapshot();
  std::printf("T1 committed; standby snapshot taken (%zu KB of metadata)\n",
              standby_snapshot.size() >> 10);

  // --- The manager dies mid-run, exactly when T2's writer wants to commit.
  auto session = cluster.client().CreateFile(CheckpointName{"job", "n0", 2});
  Bytes t2 = rng.RandomBytes(8_MiB);
  (void)session.value()->Write(t2);
  cluster.manager().Crash();
  auto outcome = session.value()->Close();
  std::printf("T2 close with manager down: %s\n",
              outcome.ok() && outcome.value() == CloseOutcome::kStashedForRecovery
                  ? "chunk map stashed on the write stripe"
                  : outcome.status().ToString().c_str());

  // --- Failover: promote the standby's snapshot.
  (void)cluster.manager().LoadSnapshot(standby_snapshot);
  std::printf("standby promoted from snapshot: manager is %s\n",
              cluster.manager().IsUp() ? "up" : "down");

  // Benefactors heartbeat and push their stashed chunk maps; once
  // two-thirds of the stripe concur, T2 commits.
  cluster.Tick(1.0);
  cluster.Tick(1.0);

  bool all_match = true;
  for (std::uint64_t t : {1ull, 2ull}) {
    auto data = cluster.client().ReadFile(CheckpointName{"job", "n0", t});
    bool match = data.ok() && (t == 1 ? data.value() == t1 : data.value() == t2);
    all_match = all_match && match;
    std::printf("T%llu after failover: %s\n",
                static_cast<unsigned long long>(t),
                match       ? "readable, content verified"
                : data.ok() ? "content differs from what was written"
                            : data.status().ToString().c_str());
  }

  // --- Life goes on.
  Bytes t3 = rng.RandomBytes(8_MiB);
  auto next = cluster.client().WriteFile(CheckpointName{"job", "n0", 3}, t3);
  std::printf("T3 after failover: %s\n",
              next.ok() ? "committed" : next.status().ToString().c_str());
  cluster.Settle();
  return all_match ? 0 : 1;
}
