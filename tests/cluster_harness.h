// Multi-process harness for the M-Cluster tests: fork/exec the real
// cluster_controller / cluster_worker binaries (paths injected by CMake
// as compile definitions), parse their "PORT=<n>\nREADY\n" handshake,
// and poll the controller's control port (and the workers' data ports)
// for plan convergence so tests wait on STATE, not on sleeps.
//
// Processes are loopback-only children of the test process; Cluster
// teardown SIGKILLs whatever a test left running, so a failing assertion
// never leaks orphans into the ctest run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/control.h"
#include "cluster/plan.h"

namespace mobivine::cluster_testing {

struct Process {
  pid_t pid = -1;
  int stdout_fd = -1;         ///< read end of the child's stdout pipe
  std::uint16_t port = 0;     ///< from the PORT= handshake line
  std::string name;           ///< for failure messages
};

/// fork/exec `binary` with `args` (argv[0] is derived from the path),
/// then block until the child prints PORT= and READY (or `timeout_ms`
/// passes / the child exits). False leaves *out untouched except name.
[[nodiscard]] bool SpawnAndAwaitReady(const std::string& binary,
                                      const std::vector<std::string>& args,
                                      Process* out, std::string* error,
                                      int timeout_ms = 10'000);

/// SIGKILL — the crash case: no leave, no drain, no goodbye.
void Kill(Process& process);

/// SIGTERM and reap; returns the exit code (-1: signal death/timeout).
int Terminate(Process& process, int timeout_ms = 10'000);

/// Reap a child that should exit on its own. -1 on timeout (leaves it).
int AwaitExit(Process& process, int timeout_ms = 10'000);

/// Poll the controller (kPlanGet over a throwaway ControlChannel) until
/// `predicate(plan)` holds. False on timeout; `out` holds the last plan
/// seen either way.
[[nodiscard]] bool WaitForPlan(
    std::uint16_t controller_port,
    const std::function<bool(const cluster::PartitionPlan&)>& predicate,
    cluster::PartitionPlan* out, int timeout_ms = 10'000);

/// Convenience predicate wrapper: plan has exactly `n` members.
[[nodiscard]] bool WaitForMembers(std::uint16_t controller_port, std::size_t n,
                                  cluster::PartitionPlan* out,
                                  int timeout_ms = 10'000);

/// Wait until every member of `plan` has adopted it, not just until the
/// controller has published it. For each member, send a request for a
/// client id the plan's ring gives to another member, and retry until
/// the kWrongWorker reply carries `plan.epoch`. False on timeout.
[[nodiscard]] bool WaitForPlanAdopted(const cluster::PartitionPlan& plan,
                                      int timeout_ms = 10'000);

}  // namespace mobivine::cluster_testing
