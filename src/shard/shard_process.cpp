#include "shard/shard_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/error.hpp"

namespace hipa::shard {

ShardProcess spawn_shard_process(const std::string& binary,
                                 const std::string& graph,
                                 std::uint32_t shard_id, VertexRange range,
                                 unsigned threads, unsigned iters) {
  int notify[2];
  HIPA_CHECK(::pipe(notify) == 0, "pipe failed: " << std::strerror(errno));
  // The read end must not leak into this or any later child.
  HIPA_CHECK(::fcntl(notify[0], F_SETFD, FD_CLOEXEC) == 0,
             "fcntl failed: " << std::strerror(errno));
  const std::string args[] = {
      binary,
      "--serve",
      "--graph=" + graph,
      "--shard-id=" + std::to_string(shard_id),
      "--range=" + std::to_string(range.begin) + ":" +
          std::to_string(range.end),
      "--threads=" + std::to_string(threads),
      "--iters=" + std::to_string(iters),
      "--notify-fd=" + std::to_string(notify[1])};
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const int fork_errno = errno;
  ::close(notify[1]);
  if (pid < 0) {
    ::close(notify[0]);
    HIPA_CHECK(false, "fork failed: " << std::strerror(fork_errno));
  }
  std::string line;
  char c = 0;
  while (::read(notify[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  ::close(notify[0]);

  ShardProcess p;
  p.pid = pid;
  p.range = range;
  if (std::sscanf(line.c_str(), "%d %d", &p.port, &p.metrics_port) != 2) {
    kill_shard_process(p);
    HIPA_CHECK(false, "shard " << shard_id << " (" << binary
                               << ") failed to start: no port report");
  }
  return p;
}

void kill_shard_process(ShardProcess& p) {
  if (p.pid <= 0) return;
  ::kill(p.pid, SIGKILL);
  ::waitpid(p.pid, nullptr, 0);
  p.pid = -1;
}

}  // namespace hipa::shard
