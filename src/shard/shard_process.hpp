// Local shard processes: fork + exec of a binary that serves one shard
// in `--serve` mode (hipa-shardctl), with the ports the child bound
// reported back over a pipe. The one launcher behind the shardctl REPL
// and the real-process failover test.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace hipa::shard {

/// One child shard process.
struct ShardProcess {
  pid_t pid = -1;
  int port = -1;
  int metrics_port = -1;
  VertexRange range{};
};

/// Run `binary --serve` over `range` of the segmented graph at `graph`
/// and block until the child reports "port metrics-port" on its notify
/// pipe. The argument vector is built before fork and the child only
/// execs, since the parent may be multithreaded. Throws hipa::Error
/// when the child exits without reporting (its stderr says why).
[[nodiscard]] ShardProcess spawn_shard_process(const std::string& binary,
                                               const std::string& graph,
                                               std::uint32_t shard_id,
                                               VertexRange range,
                                               unsigned threads,
                                               unsigned iters);

/// SIGKILL and reap the child; a no-op once it has been reaped.
void kill_shard_process(ShardProcess& p);

}  // namespace hipa::shard
