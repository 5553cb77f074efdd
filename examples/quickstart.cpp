// Quickstart: open a talus DB with the Vertiorizon growth scheme, write,
// read, scan, delete, inspect the tree, close, reopen, and verify recovery.
//
//   ./examples/quickstart [db_path]
//
// With no argument the example runs on an in-memory environment; with a
// path it uses the real filesystem.
#include <cstdio>
#include <memory>
#include <string>

#include "env/env.h"
#include "lsm/db.h"

using namespace talus;

int main(int argc, char** argv) {
  std::unique_ptr<Env> owned_env;
  Env* env;
  std::string path;
  if (argc > 1) {
    env = Env::Default();
    path = argv[1];
  } else {
    owned_env = NewMemEnv();
    env = owned_env.get();
    path = "/quickstart-db";
  }

  DbOptions options;
  options.env = env;
  options.path = path;
  options.write_buffer_size = 64 << 10;
  options.target_file_size = 64 << 10;
  // The paper's contribution as the default growth scheme: self-tuning
  // Vertiorizon with size ratio 6 for a balanced workload.
  options.policy = GrowthPolicyConfig::Vertiorizon(6.0);

  std::unique_ptr<DB> db;
  Status s = DB::Open(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("opened db at %s with policy '%s'\n", path.c_str(),
              db->policy()->name().c_str());

  // Write enough data to push through several flushes and compactions.
  for (int i = 0; i < 2000; i++) {
    char key[32], value[64];
    std::snprintf(key, sizeof(key), "user%06d", i);
    std::snprintf(value, sizeof(value), "profile-data-for-user-%06d", i);
    s = db->Put(key, std::string(value) + std::string(200, '.'));
    if (!s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // Point lookup.
  std::string value;
  s = db->Get("user00042", &value);
  std::printf("get user000042-style key: %s (value %zu bytes)\n",
              s.ToString().c_str(), value.size());

  // Range scan.
  std::vector<std::pair<std::string, std::string>> rows;
  db->Scan("user000100", 5, &rows);
  std::printf("scan from user000100, 5 rows:\n");
  for (const auto& [k, v] : rows) {
    std::printf("  %s -> %zu bytes\n", k.c_str(), v.size());
  }

  // Delete and verify.
  db->Delete("user000100");
  s = db->Get("user000100", &value);
  std::printf("after delete, get user000100: %s\n", s.ToString().c_str());

  // Engine introspection.
  const EngineStats& stats = db->stats();
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  std::printf("\nengine stats: %llu puts, %llu flushes, %llu compactions, "
              "write-amp %.2f, read-amp %.2f\n",
              static_cast<unsigned long long>(amp.puts),
              static_cast<unsigned long long>(stats.flushes),
              static_cast<unsigned long long>(
                  amp.Total(&obs::AmpSnapshot::Level::compactions)),
              amp.WriteAmp(), amp.ReadAmp());
  std::printf("tree shape:\n%s", db->DebugString().c_str());

  // Reopen: everything must come back (WAL + manifest recovery).
  db.reset();
  s = DB::Open(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n", s.ToString().c_str());
    return 1;
  }
  s = db->Get("user001999", &value);
  std::printf("\nafter reopen, get user001999: %s\n", s.ToString().c_str());
  std::printf("quickstart done.\n");
  return 0;
}
