// In-process implementation of the asynchronous chunk transport
// (client/transport.h) between clients and benefactors, with fault
// injection and modeled link timing.
//
// This is the functional stand-in for the desktop grid's LAN. Every
// cross-node transfer is one op through it, addressed to one node: client
// puts and gets, and the background pump's repair reads and rebuilt-copy
// writes. So link cuts, loss draws and the traffic counters see all of
// them. Execution is eager and in submission order: an op's routing,
// benefactor side effect and GET lookups happen at Submit(), on the
// submitting thread, which keeps runs deterministic. One piece runs
// later: the content check of unstamped GET payloads (disk reads,
// compacted memory chunks), a pure function of immutable bytes, is handed
// to the shared HashPool at Submit and joined before the completion is
// delivered, so one reader's window of GETs verifies in parallel.
// Completion *delivery* follows the modeled clock: each node's access link
// (sim/LinkModel) serializes its own ops and charges latency +
// bytes/bandwidth, while ops on distinct nodes overlap. With the default
// zero-cost links the clock never moves; with per-node models configured
// from perf/PlatformModel, pipelined callers finish in a fraction of the
// serial caller's modeled time — the paper-figure benches measure exactly
// that.
//
// Thread-safety: all operations are safe for concurrent use. The mutex
// guards only the transport's own bookkeeping: handle allocation, routing
// (RPC count, reachability, the loss-rate draw), traffic counters, the
// link clock and the pending table. The benefactor call runs outside it,
// so concurrent clients' verifies, appends + fsyncs and restart reads
// overlap; each benefactor serializes only its own admission. Read checks
// are joined with it released too. A single-threaded caller sees the same
// op order, fault draws and modeled delivery order as under a fully
// serial transport, and the same store counters unless a pool check
// fails: a batch GET's lookups do not wait for its checks. Callers only
// ever wait on their own handles, so concurrent sessions sharing one
// transport cannot steal each other's completions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>

#include "benefactor/benefactor.h"
#include "client/transport.h"
#include "common/annotated_mutex.h"
#include "common/hash_pool.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/link_model.h"

namespace stdchk {

class LocalTransport final : public Transport {
 public:
  LocalTransport() : rng_(0xC0FFEE) {}

  // Registers a benefactor endpoint (must have joined a pool already so it
  // has a node id). Does not take ownership.
  void AddEndpoint(Benefactor* benefactor);

  // ---- Fault injection -----------------------------------------------------
  // Cuts the "network" to a node without touching the node itself (models
  // a switch/link failure as opposed to a desktop reclaim).
  void SetUnreachable(NodeId node, bool unreachable);
  // Every data RPC to `node` fails with this probability.
  void SetLossRate(NodeId node, double p);

  // ---- Link timing model ---------------------------------------------------
  // A node without a model of its own gets the zero link, which keeps the
  // modeled clock at 0 (timing-free functional tests).
  void SetLinkModel(NodeId node, sim::LinkModel model);
  // Modeled time: advanced by Wait/WaitAny as completions are harvested.
  SimTime now() const;

  // ---- Traffic accounting --------------------------------------------------
  std::uint64_t rpc_count() const;
  std::uint64_t bytes_moved() const;
  // Highest number of simultaneously in-flight ops observed — the witness
  // that a caller actually overlapped its RPCs.
  std::size_t inflight_peak() const;
  void ResetInflightPeak();

  // ---- Transport -----------------------------------------------------------
  OpHandle Submit(ChunkOp op) override;
  Result<OpCompletion> Wait(OpHandle handle) override;
  Result<OpCompletion> WaitAny(std::span<const OpHandle> handles) override;
  std::optional<OpCompletion> Poll(std::span<const OpHandle> handles) override;
  bool Cancel(OpHandle handle) override;
  std::size_t InFlight() const override;

 private:
  // A GET's looked-up payloads and their content checks (defined in the
  // .cc). Shared with the pool batch that runs the checks.
  struct ReadCheck;

  struct Pending {
    OpCompletion completion;
    SimTime ready_at = 0;  // modeled delivery time
    // A GET whose checks run on the pool: Deliver joins `checking`, then
    // settles the completion from `read`.
    std::shared_ptr<ReadCheck> read;
    HashPool::Batch checking;
  };

  // Counts the RPC and applies the link faults: unknown node, cut link,
  // then the loss-rate draw.
  Result<Benefactor*> Route(NodeId node) EXCLUDES(mu_);
  const sim::LinkModel& LinkLocked(NodeId node) const REQUIRES(mu_);
  // Earliest-finishing pending op among `handles` (submission order breaks
  // ties); unknown handles are skipped. `only_ready` restricts the search
  // to ops already finished at the modeled clock. end() if none qualify.
  std::map<OpHandle, Pending>::iterator FindEarliestLocked(
      std::span<const OpHandle> handles, bool only_ready) REQUIRES(mu_);
  // Routes `op`, executes it against the routed benefactor and fills
  // `p.completion`'s status and payload, unless a GET leaves its checks
  // running in `p`. Returns the op's wire bytes, which occupy its node's
  // modeled link and count in bytes_moved(). Only routing takes mu_; the
  // benefactor, chunk-store and hash-pool locks the call reaches are taken
  // without it.
  std::uint64_t Execute(const ChunkOp& op, Pending& p) EXCLUDES(mu_);
  // A GET's in-order half: looks `ids` up on `node`, stopping at the first
  // failed lookup or failed stamped-digest compare, and checks the
  // looked-up payloads. Stamped ones compare here; unstamped ones are
  // spawned on the shared HashPool. The GET is charged its looked-up bytes
  // unless a lookup failed. A GET with nothing spawned is settled here.
  std::uint64_t Read(const Benefactor& node, std::span<const ChunkId> ids,
                     Pending& p) EXCLUDES(mu_);
  // Joins a GET's pool checks and settles its completion: the first
  // failure in id order wins and a rejected GET carries no payload.
  OpCompletion Deliver(Pending p) EXCLUDES(mu_);
  Pending TakeLocked(std::map<OpHandle, Pending>::iterator it) REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kTransport, 0, "local_transport"};
  std::map<NodeId, Benefactor*> endpoints_ GUARDED_BY(mu_);
  std::set<NodeId> unreachable_ GUARDED_BY(mu_);
  std::map<NodeId, double> loss_rate_ GUARDED_BY(mu_);
  std::map<NodeId, sim::LinkModel> links_ GUARDED_BY(mu_);
  std::map<NodeId, SimTime> link_busy_until_ GUARDED_BY(mu_);
  Rng rng_ GUARDED_BY(mu_);

  SimTime now_ GUARDED_BY(mu_) = 0;
  OpHandle next_handle_ GUARDED_BY(mu_) = 1;
  std::map<OpHandle, Pending> pending_ GUARDED_BY(mu_);
  std::uint64_t rpc_count_ GUARDED_BY(mu_) = 0;
  std::uint64_t bytes_moved_ GUARDED_BY(mu_) = 0;
  std::size_t inflight_peak_ GUARDED_BY(mu_) = 0;
};

}  // namespace stdchk
