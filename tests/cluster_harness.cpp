#include "tests/cluster_harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "cluster/client.h"
#include "gateway/gateway.h"
#include "wire/client.h"

namespace mobivine::cluster_testing {

namespace {

std::uint64_t NowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

bool SpawnAndAwaitReady(const std::string& binary,
                        const std::vector<std::string>& args, Process* out,
                        std::string* error, int timeout_ms) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    if (error) *error = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    if (error) *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: stdout -> pipe, exec the binary. _exit on any failure — the
    // parent reads EOF and reports.
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }

  ::close(pipe_fds[1]);
  out->pid = pid;
  out->stdout_fd = pipe_fds[0];
  if (out->name.empty()) out->name = binary;

  // Read the handshake: lines until READY, harvesting PORT=.
  std::string buffered;
  const std::uint64_t deadline = NowMs() + static_cast<std::uint64_t>(timeout_ms);
  while (true) {
    const std::size_t ready_at = buffered.find("READY\n");
    if (ready_at != std::string::npos) break;
    const std::uint64_t now = NowMs();
    if (now >= deadline) {
      if (error) *error = out->name + ": no READY within timeout";
      return false;
    }
    pollfd pfd{out->stdout_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(deadline - now));
    if (rc <= 0) continue;
    char chunk[256];
    const ssize_t n = ::read(out->stdout_fd, chunk, sizeof chunk);
    if (n == 0) {
      if (error) *error = out->name + ": exited before READY";
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = out->name + ": read: " + std::strerror(errno);
      return false;
    }
    buffered.append(chunk, static_cast<std::size_t>(n));
  }

  const std::size_t port_at = buffered.find("PORT=");
  if (port_at == std::string::npos) {
    if (error) *error = out->name + ": READY without PORT=";
    return false;
  }
  out->port = static_cast<std::uint16_t>(
      std::strtoul(buffered.c_str() + port_at + 5, nullptr, 10));
  return true;
}

void Kill(Process& process) {
  if (process.pid > 0) {
    ::kill(process.pid, SIGKILL);
    ::waitpid(process.pid, nullptr, 0);
    process.pid = -1;
  }
  if (process.stdout_fd >= 0) {
    ::close(process.stdout_fd);
    process.stdout_fd = -1;
  }
}

int AwaitExit(Process& process, int timeout_ms) {
  if (process.pid <= 0) return -1;
  const std::uint64_t deadline = NowMs() + static_cast<std::uint64_t>(timeout_ms);
  while (true) {
    int status = 0;
    const pid_t reaped = ::waitpid(process.pid, &status, WNOHANG);
    if (reaped == process.pid) {
      process.pid = -1;
      if (process.stdout_fd >= 0) {
        ::close(process.stdout_fd);
        process.stdout_fd = -1;
      }
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (NowMs() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

int Terminate(Process& process, int timeout_ms) {
  if (process.pid <= 0) return -1;
  ::kill(process.pid, SIGTERM);
  const int code = AwaitExit(process, timeout_ms);
  if (process.pid > 0) Kill(process);  // SIGTERM ignored: stop leaking it
  return code;
}

bool WaitForPlan(
    std::uint16_t controller_port,
    const std::function<bool(const cluster::PartitionPlan&)>& predicate,
    cluster::PartitionPlan* out, int timeout_ms) {
  const std::uint64_t deadline = NowMs() + static_cast<std::uint64_t>(timeout_ms);
  wire::ConnectOptions options;
  options.connect_timeout = std::chrono::microseconds(500'000);
  while (NowMs() < deadline) {
    // A fresh channel per probe: the controller treats each as a cheap
    // anonymous subscriber and drops it when we close.
    cluster::ControlChannel channel;
    std::string error;
    if (channel.Connect(controller_port, options, &error)) {
      cluster::ControlMessage request;
      request.op = cluster::ControlOp::kPlanGet;
      cluster::ControlMessage reply;
      if (channel.Roundtrip(std::move(request), &reply, 500'000, &error) &&
          reply.op == cluster::ControlOp::kPlanPush) {
        if (out) *out = reply.plan;
        if (predicate(reply.plan)) return true;
      }
      channel.Close();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

bool WaitForMembers(std::uint16_t controller_port, std::size_t n,
                    cluster::PartitionPlan* out, int timeout_ms) {
  return WaitForPlan(
      controller_port,
      [n](const cluster::PartitionPlan& plan) {
        return plan.members.size() == n;
      },
      out, timeout_ms);
}

bool WaitForPlanAdopted(const cluster::PartitionPlan& plan, int timeout_ms) {
  if (plan.members.size() < 2) return true;  // no id to bounce
  const std::uint64_t deadline = NowMs() + static_cast<std::uint64_t>(timeout_ms);
  const cluster::HashRing ring(plan);
  for (const cluster::PlanMember& member : plan.members) {
    // A client id the ring gives to some other member.
    std::uint64_t client_id = 0;
    while (ring.OwnerFor(client_id) == member.worker_id) ++client_id;
    wire::WireRequest request;
    request.client_id = client_id;
    request.platform = gateway::Platform::kAndroid;
    request.op = gateway::Op::kHttpGet;
    request.target =
        std::string("http://") + gateway::kGatewayHttpHost + "/ping";
    while (true) {
      // Until the member holds `plan`, it either owns the id (an older,
      // smaller plan) or bounces it with an older epoch.
      wire::WireClient client;
      wire::WireResponse response;
      if (client.Connect(member.data_port) && client.Call(request, &response) &&
          response.status == wire::WireStatus::kWrongWorker &&
          cluster::ParseWrongWorkerEpoch(response.body) == plan.epoch) {
        break;
      }
      if (NowMs() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  return true;
}

}  // namespace mobivine::cluster_testing
