#include "core/background_driver.h"

namespace stdchk {

BackgroundDriver::BackgroundDriver(StdchkCluster* cluster,
                                   double period_seconds)
    : cluster_(cluster), period_seconds_(period_seconds) {
  thread_ = std::thread([this] { Loop(); });
}

BackgroundDriver::~BackgroundDriver() { Stop(); }

void BackgroundDriver::Stop() {
  {
    MutexLock lock(mu_);
    if (stop_.exchange(true)) return;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void BackgroundDriver::Loop() {
  while (!stop_.load()) {
    {
      // Sleep out the period under the driver mutex, waking early on Stop().
      MutexLock lock(mu_);
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::steady_clock::
                                                     duration>(
                          std::chrono::duration<double>(period_seconds_));
      bool timed_out = false;
      while (!stop_.load() && !timed_out) {
        timed_out = cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout;
      }
    }
    if (stop_.load()) break;
    // Tick with no locks held: the cluster tick acquires manager, catalog,
    // transport and store locks, all of which rank above this mutex.
    cluster_->Tick(period_seconds_);
    ticks_.fetch_add(1);
  }
}

}  // namespace stdchk
