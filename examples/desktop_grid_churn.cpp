// Desktop-grid churn scenario: an HPC application checkpoints every
// timestep while desktops join, get reclaimed by their owners, and return.
// Replication keeps every image readable; garbage collection reclaims
// space as the retention policy replaces old images.
//
//   ./build/examples/desktop_grid_churn
#include <cstdio>

#include "common/rng.h"
#include "core/cluster.h"

using namespace stdchk;

int main() {
  ClusterOptions options;
  options.benefactor_count = 10;
  options.client.stripe_width = 4;
  options.client.chunk_size = 1_MiB;
  options.client.semantics = WriteSemantics::kOptimistic;
  StdchkCluster cluster(options);

  // Availability policy: keep 2 replicas of everything in this folder,
  // and let new images replace old ones.
  FolderPolicy policy;
  policy.retention = RetentionPolicy::kAutomatedReplace;
  policy.keep_last = 2;
  policy.replication_target = 2;
  cluster.manager().SetFolderPolicy("sim", policy);

  Rng rng(7);
  Rng churn_rng(99);
  std::size_t reclaimed = 0, returned = 0;

  for (std::uint64_t t = 1; t <= 12; ++t) {
    // The application computes, then checkpoints ~24 MB.
    Bytes image = rng.RandomBytes(24_MiB);
    CheckpointName name{"sim", "node0", t};
    auto outcome = cluster.client().WriteFile(name, image);
    std::printf("T%-3llu write: %s\n", static_cast<unsigned long long>(t),
                outcome.ok() ? "committed" : outcome.status().ToString().c_str());

    // Desktop churn: each tick one random machine may be reclaimed by its
    // owner, and one previously reclaimed machine may come back.
    std::size_t victim = churn_rng.NextBelow(cluster.benefactor_count());
    if (cluster.benefactor(victim).online() && churn_rng.NextBool(0.5)) {
      cluster.benefactor(victim).Crash();
      ++reclaimed;
      std::printf("     owner reclaimed %s\n",
                  cluster.benefactor(victim).host().c_str());
    }
    std::size_t candidate = churn_rng.NextBelow(cluster.benefactor_count());
    if (!cluster.benefactor(candidate).online()) {
      (void)cluster.RestartBenefactor(candidate);
      ++returned;
      std::printf("     %s returned to the pool\n",
                  cluster.benefactor(candidate).host().c_str());
    }

    // Background machinery: heartbeats, expiry, replication repair,
    // retention, GC. (The BackgroundDriver does this from a thread in a
    // real deployment; here we pump deterministically.)
    for (int i = 0; i < 15; ++i) cluster.Tick(1.0);
  }

  // Bring everyone back and let the system settle.
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    if (!cluster.benefactor(i).online()) (void)cluster.RestartBenefactor(i);
  }
  cluster.Settle(256);

  auto versions = cluster.manager().ListVersions("sim").value();
  std::printf("\nafter churn (%zu reclaims, %zu returns):\n", reclaimed,
              returned);
  std::printf("  retained versions (policy keeps last 2): %zu\n",
              versions.size());
  bool all_readable = true;
  for (const CheckpointName& name : versions) {
    auto data = cluster.client().ReadFile(name);
    all_readable = all_readable && data.ok();
    std::printf("  %s: %s\n", name.ToString().c_str(),
                data.ok() ? "readable, restart possible"
                          : data.status().ToString().c_str());
  }

  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    stored += cluster.benefactor(i).BytesUsed();
  }
  std::printf("  scavenged space in use: %llu MB (2 replicas x 2 images)\n",
              static_cast<unsigned long long>(stored >> 20));
  return all_readable ? 0 : 1;
}
