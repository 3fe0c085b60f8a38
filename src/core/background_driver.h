// Wall-clock driver for StdchkCluster background work. The cluster itself
// is deterministic and step-driven (tests call Tick() directly); examples
// and long-running deployments attach this driver to pump ticks from a
// thread.
#pragma once

#include <atomic>
#include <chrono>
#include <thread>

#include "common/annotated_mutex.h"
#include "core/cluster.h"

namespace stdchk {

class BackgroundDriver {
 public:
  // Pumps `cluster.Tick(period_seconds)` every `period_seconds` of wall
  // time until destroyed or Stop()ped.
  BackgroundDriver(StdchkCluster* cluster, double period_seconds);
  ~BackgroundDriver();

  BackgroundDriver(const BackgroundDriver&) = delete;
  BackgroundDriver& operator=(const BackgroundDriver&) = delete;

  void Stop() EXCLUDES(mu_);

  std::uint64_t ticks() const { return ticks_.load(); }

 private:
  void Loop() EXCLUDES(mu_);

  StdchkCluster* cluster_;
  double period_seconds_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> ticks_{0};
  // Held only around the stop/wakeup handshake, never across Tick() — so
  // its rank sits at the bottom of the hierarchy: every lock the cluster
  // tick takes (manager, catalog, transport, stores...) ranks above it.
  Mutex mu_{LockRank::kBackgroundDriver, 0, "background_driver"};
  CondVar cv_;
  std::thread thread_;
};

}  // namespace stdchk
