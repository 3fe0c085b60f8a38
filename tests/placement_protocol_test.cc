// Stripe placement, end to end. The metadata manager picks every write
// stripe (ReserveStripe -> BenefactorRegistry::SelectStripe: most effective
// free space first, eager reservations counted, a rotating tie-break among
// equals) and every failover replacement (ReplaceReservationNode). These
// tests pin what that one protocol guarantees across a cluster: one
// placement RPC per written file, donor usage kept level under many
// writers, a joining desktop used at once, a departed one never chosen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

ClusterOptions PlacementOptions(int benefactors) {
  ClusterOptions options;
  options.benefactor_count = benefactors;
  options.client.stripe_width = 2;
  options.client.chunk_size = 1024;
  return options;
}

TEST(PlacementProtocolTest, EachWriteCostsOneManagerPlacement) {
  StdchkCluster cluster(PlacementOptions(6));
  Rng rng(11);

  Bytes image = rng.RandomBytes(8 * 1024);
  for (std::uint64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(
        cluster.client().WriteFile(CheckpointName{"app", "n", t}, image).ok());
  }
  // One ReserveStripe per session: the eager reservation covers every
  // flush, so no write asks the manager twice.
  EXPECT_EQ(cluster.manager().Counters().server_side_placements, 10u);

  auto read = cluster.client().ReadFile(CheckpointName{"app", "n", 10});
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), image);
}

TEST(PlacementProtocolTest, DistinctFilesSpreadAcrossThePool) {
  StdchkCluster cluster(PlacementOptions(8));
  Rng rng(12);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cluster.client()
                    .WriteFile(CheckpointName{"app" + std::to_string(i), "n", 1},
                               rng.RandomBytes(2048))
                    .ok());
  }
  // Committed bytes lower a donor's free space, so successive files move
  // on to the donors with the most room instead of dogpiling one stripe.
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    EXPECT_GT(cluster.benefactor(i).ChunkCount(), 0u) << "node " << i;
  }
}

// Figure 8's shape, scaled down: seven writers share twenty donors. Picking
// the donors with the most free space keeps every donor within one file's
// share of every other, so no donor fills while another idles.
TEST(PlacementProtocolTest, ManyWritersKeepDonorUsageLevel) {
  constexpr std::size_t kWriters = 7;
  constexpr std::uint64_t kFilesPerWriter = 20;
  constexpr std::size_t kFileBytes = 16 * 1024;
  constexpr int kWidth = 4;
  ClusterOptions options = PlacementOptions(20);
  options.client.stripe_width = kWidth;
  StdchkCluster cluster(options);
  std::vector<std::unique_ptr<ClientProxy>> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.push_back(cluster.MakeClient(options.client));
  }

  Rng rng(13);
  for (std::uint64_t t = 1; t <= kFilesPerWriter; ++t) {
    for (std::size_t w = 0; w < kWriters; ++w) {
      CheckpointName name{"app" + std::to_string(w), "n", t};
      ASSERT_TRUE(writers[w]->WriteFile(name, rng.RandomBytes(kFileBytes)).ok());
    }
  }

  std::uint64_t least = UINT64_MAX;
  std::uint64_t most = 0;
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    least = std::min(least, cluster.benefactor(i).BytesUsed());
    most = std::max(most, cluster.benefactor(i).BytesUsed());
  }
  // One file stores kFileBytes / kWidth on each member of its stripe.
  EXPECT_LE(most - least, kFileBytes / kWidth);
}

TEST(PlacementProtocolTest, JoiningDesktopIsPickedAtOnce) {
  StdchkCluster cluster(PlacementOptions(4));
  Rng rng(14);
  ASSERT_TRUE(cluster.client()
                  .WriteFile(CheckpointName{"app", "n", 1}, rng.RandomBytes(4096))
                  .ok());

  // A desktop joins with more free space than any pool member. Clients
  // hold no placement state, so the very next stripe includes it.
  auto joined = cluster.AddBenefactor(8_GiB);
  ASSERT_TRUE(joined.ok());
  ASSERT_TRUE(cluster.client()
                  .WriteFile(CheckpointName{"app", "n", 2}, rng.RandomBytes(4096))
                  .ok());
  EXPECT_GT(cluster.FindBenefactor(joined.value())->ChunkCount(), 0u);
  EXPECT_EQ(cluster.manager().Counters().server_side_placements, 2u);
}

TEST(PlacementProtocolTest, DepartedDesktopIsNeverPicked) {
  StdchkCluster cluster(PlacementOptions(4));
  Benefactor& departed = cluster.benefactor(0);
  // Administrative departure: the node still answers the data path, so
  // only placement keeps data off it.
  ASSERT_TRUE(
      cluster.manager().registry_mutable().SetOffline(departed.id()).ok());

  Rng rng(15);
  for (std::uint64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(cluster.client()
                    .WriteFile(CheckpointName{"app", "n", t},
                               rng.RandomBytes(4096))
                    .ok());
  }
  EXPECT_EQ(departed.ChunkCount(), 0u);
}

TEST(PlacementProtocolTest, FailoverReplacementIsAManagerPlacement) {
  ClusterOptions options = PlacementOptions(3);
  options.client.protocol = WriteProtocol::kSlidingWindow;
  StdchkCluster cluster(options);
  Rng rng(16);

  auto session = cluster.client().CreateFile(CheckpointName{"app", "n", 1});
  ASSERT_TRUE(session.ok());
  // Sliding-window pushes chunks as they seal, so the stripe is reserved
  // and holds data here, mid-write.
  ASSERT_TRUE(session.value()->Write(rng.RandomBytes(4096)).ok());
  std::size_t victim = cluster.benefactor_count();
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    if (cluster.benefactor(i).ChunkCount() > 0) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, cluster.benefactor_count());
  ASSERT_TRUE(cluster.CrashBenefactor(victim).ok());

  ASSERT_TRUE(session.value()->Write(rng.RandomBytes(4096)).ok());
  auto outcome = session.value()->Close();
  ASSERT_TRUE(outcome.ok());
  // The reservation, plus one replacement for the crashed member.
  EXPECT_EQ(cluster.manager().Counters().server_side_placements, 2u);
}

TEST(PlacementProtocolTest, ClientCannotCommitOntoDepartedDesktops) {
  ClusterOptions options = PlacementOptions(4);
  options.client.protocol = WriteProtocol::kSlidingWindow;
  StdchkCluster cluster(options);
  Rng rng(17);

  auto session = cluster.client().CreateFile(CheckpointName{"app", "n", 1});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Write(rng.RandomBytes(4096)).ok());

  // Every donor holding the file's chunks departs (administratively, so the
  // data path still answers) between placement and commit.
  int departed = 0;
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    Benefactor& node = cluster.benefactor(i);
    if (node.ChunkCount() == 0) continue;
    ASSERT_TRUE(cluster.manager().registry_mutable().SetOffline(node.id()).ok());
    ++departed;
  }
  ASSERT_EQ(departed, options.client.stripe_width);

  // Every chunk's replicas sit on departed donors, so the commit must be
  // rejected rather than publish a map nobody can read.
  auto outcome = session.value()->Close();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cluster.manager().GetVersion(CheckpointName{"app", "n", 1}).ok());
}

}  // namespace
}  // namespace stdchk
