// Standalone talus server: open (or create) a ShardedDB and serve it over
// the wire protocol (docs/PROTOCOL.md) plus HTTP `GET /metrics` on the
// same port. Runs until SIGINT/SIGTERM, then drains gracefully.
//
//   ./example_talus_server [options]
//     --path=DIR          database directory (default /tmp/talus_server)
//     --mem               in-memory env (data lost on exit)
//     --addr=A --port=N   listen address (default 127.0.0.1:4980)
//     --shards=N          shard count for a fresh database (default 4)
//     --workers=N         request worker threads (default 4)
//     --depth=N           max pipeline depth per connection (default 64)
//     --policy=<name>     growth policy at T=6 (default vertiorizon); the
//                         names are ycsb_runner's roster, and an unknown
//                         one exits with the accepted list
//
// Quickstart (README.md):
//   ./example_talus_server --mem --port=4980 &
//   curl -s http://127.0.0.1:4980/metrics | head
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "env/env.h"
#include "policy/policy_config.h"
#include "server/server.h"
#include "shard/sharded_db.h"
#include "workload/generator.h"

using namespace talus;

namespace {

std::atomic<bool> g_stop{false};
void HandleSignal(int) { g_stop.store(true); }

std::string FlagValue(int argc, char** argv, const char* name,
                      const char* def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

bool FlagPresent(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; i++) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bool use_mem = FlagPresent(argc, argv, "mem");
  const std::string path =
      FlagValue(argc, argv, "path", "/tmp/talus_server");
  const int shards =
      std::atoi(FlagValue(argc, argv, "shards", "4").c_str());
  const std::string policy_name =
      FlagValue(argc, argv, "policy", "vertiorizon");

  std::unique_ptr<Env> owned_env;
  DbOptions opts;
  if (!GrowthPolicyConfigByName(policy_name, 6, 0, &opts.policy)) {
    std::fprintf(stderr, "unknown --policy=%s (accepted: %s)\n",
                 policy_name.c_str(), GrowthPolicyNames().c_str());
    return 2;
  }
  if (use_mem) {
    owned_env = NewMemEnv();
    opts.env = owned_env.get();
    opts.path = "/db";
  } else {
    opts.env = Env::Default();
    opts.path = path;
    opts.env->CreateDirIfMissing(path);
  }
  opts.execution_mode = ExecutionMode::kBackground;
  opts.shard_count = shards > 0 ? shards : 1;

  std::unique_ptr<shard::ShardedDB> db;
  Status s = shard::ShardedDB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open %s failed: %s\n", opts.path.c_str(),
                 s.ToString().c_str());
    return 1;
  }

  server::ServerOptions sopts;
  sopts.listen_addr = FlagValue(argc, argv, "addr", "127.0.0.1");
  sopts.port = static_cast<uint16_t>(
      std::atoi(FlagValue(argc, argv, "port", "4980").c_str()));
  sopts.worker_threads =
      std::atoi(FlagValue(argc, argv, "workers", "4").c_str());
  sopts.max_pipeline_depth = static_cast<size_t>(
      std::atoi(FlagValue(argc, argv, "depth", "64").c_str()));
  server::Server srv(db.get(), sopts);
  s = srv.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("talus_server: %s shards=%zu policy=%s on %s:%u "
              "(metrics: http://%s:%u/metrics)\n",
              use_mem ? "mem env" : opts.path.c_str(), db->shard_count(),
              policy_name.c_str(), sopts.listen_addr.c_str(), srv.port(),
              sopts.listen_addr.c_str(), srv.port());

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  while (!g_stop.load()) {
    ::usleep(100 * 1000);
  }

  std::printf("talus_server: draining...\n");
  srv.Stop();
  const server::ServerStats stats = srv.stats();
  std::printf("talus_server: served %llu requests on %llu connections\n",
              static_cast<unsigned long long>(stats.requests_total),
              static_cast<unsigned long long>(stats.connections_accepted));
  return 0;
}
