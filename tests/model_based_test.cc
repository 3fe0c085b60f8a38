// Model-based randomized integration test: a long pseudo-random sequence
// of operations (writes, dedup writes, deletes, reads, churn, manager
// bounces, background ticks) runs against the cluster while a simple
// in-memory reference model tracks what must be true. Any divergence —
// lost committed data with surviving replicas, resurrected deleted files,
// corrupted contents — fails the test.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

struct ModelFile {
  Bytes content;
  int replication_target = 2;
};

class ModelBasedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelBasedTest, RandomOperationSequenceStaysConsistent) {
  ClusterOptions options;
  options.benefactor_count = 8;
  options.client.stripe_width = 3;
  options.client.chunk_size = 1024;
  options.client.semantics = WriteSemantics::kPessimistic;
  options.client.replication_target = 2;
  StdchkCluster cluster(options);

  Rng rng(GetParam());
  std::map<std::string, ModelFile> model;  // committed files by name
  std::uint64_t next_timestep = 1;
  int crashed_count = 0;

  auto any_two_nodes_up = [&] {
    return static_cast<int>(cluster.benefactor_count()) - crashed_count >= 3;
  };

  for (int step = 0; step < 120; ++step) {
    switch (rng.NextBelow(8)) {
      case 0:
      case 1: {  // write a new version
        if (!any_two_nodes_up()) break;
        CheckpointName name{"model", "n" + std::to_string(rng.NextBelow(3)),
                            next_timestep++};
        Bytes data = rng.RandomBytes(512 + rng.NextBelow(8 * 1024));
        auto outcome = cluster.client().WriteFile(name, data);
        if (outcome.ok() &&
            outcome.value() == CloseOutcome::kCommitted) {
          model[name.ToString()] = ModelFile{data, 2};
        }
        break;
      }
      case 2: {  // deduplicated write of an existing file's content
        if (model.empty() || !any_two_nodes_up()) break;
        auto it = model.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.NextBelow(model.size())));
        CheckpointName name{"model", "dup", next_timestep++};
        ClientOptions co = cluster.client().options();
        co.incremental_fsch = true;
        auto client = cluster.MakeClient(co);
        auto outcome = client->WriteFile(name, it->second.content);
        if (outcome.ok() && outcome.value() == CloseOutcome::kCommitted) {
          model[name.ToString()] = it->second;
        }
        break;
      }
      case 3: {  // delete a random file
        if (model.empty()) break;
        auto it = model.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.NextBelow(model.size())));
        auto parsed = CheckpointName::Parse(it->first);
        ASSERT_TRUE(parsed.has_value());
        Status status = cluster.client().Delete(*parsed);
        if (status.ok()) model.erase(it);
        break;
      }
      case 4: {  // crash a random benefactor
        std::size_t victim = rng.NextBelow(cluster.benefactor_count());
        if (cluster.benefactor(victim).online() && crashed_count < 4) {
          cluster.benefactor(victim).Crash();
          ++crashed_count;
        }
        break;
      }
      case 5: {  // restart a random benefactor
        std::size_t victim = rng.NextBelow(cluster.benefactor_count());
        if (!cluster.benefactor(victim).online()) {
          ASSERT_TRUE(cluster.RestartBenefactor(victim).ok());
          --crashed_count;
        }
        break;
      }
      case 6: {  // manager bounce (committed state is durable)
        cluster.manager().Crash();
        cluster.manager().Restart();
        break;
      }
      case 7: {  // let background machinery run
        for (int i = 0; i < static_cast<int>(rng.NextBelow(20)); ++i) {
          cluster.Tick(1.0);
        }
        break;
      }
    }

    // Invariant: a random committed file reads back byte-exact whenever
    // enough of the grid is up. With replication target 2 and at most one
    // crashed holder per chunk this should essentially always hold after
    // repair; skip verification while multiple nodes are down.
    if (!model.empty() && crashed_count == 0) {
      cluster.Settle(64);
      auto it = model.begin();
      std::advance(it,
                   static_cast<std::ptrdiff_t>(rng.NextBelow(model.size())));
      auto parsed = CheckpointName::Parse(it->first);
      ASSERT_TRUE(parsed.has_value());
      auto read_back = cluster.client().ReadFile(*parsed);
      ASSERT_TRUE(read_back.ok())
          << "step " << step << " file " << it->first << ": "
          << read_back.status();
      ASSERT_EQ(read_back.value(), it->second.content) << it->first;
    }
  }

  // Final convergence: everyone back, repair, then every committed file
  // must be intact and every deleted file gone.
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    if (!cluster.benefactor(i).online()) {
      ASSERT_TRUE(cluster.RestartBenefactor(i).ok());
    }
  }
  cluster.Settle(256);

  for (const auto& [name, file] : model) {
    auto parsed = CheckpointName::Parse(name);
    ASSERT_TRUE(parsed.has_value());
    auto read_back = cluster.client().ReadFile(*parsed);
    ASSERT_TRUE(read_back.ok()) << name << ": " << read_back.status();
    EXPECT_EQ(read_back.value(), file.content) << name;

    // Replica floor: every chunk has at least its replication target of
    // listed holders that hold it.
    auto record = cluster.manager().GetVersion(*parsed);
    ASSERT_TRUE(record.ok()) << name << ": " << record.status();
    for (const ChunkLocation& loc : record.value().chunk_map.chunks) {
      int held = 0;
      for (NodeId node : loc.replicas) {
        Benefactor* holder = cluster.FindBenefactor(node);
        if (holder != nullptr && holder->HasChunk(loc.id)) ++held;
      }
      EXPECT_GE(held, file.replication_target)
          << name << " chunk " << loc.id.ToHex();
    }
  }
  EXPECT_EQ(cluster.manager().catalog().TotalVersions(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelBasedTest,
                         ::testing::Values(1ull, 42ull, 1337ull, 0xDEADull));

}  // namespace
}  // namespace stdchk
