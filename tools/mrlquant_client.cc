// mrlquant_client: command-line client for mrlquantd.
//
//   mrlquant_client --uds=/tmp/mrlquant.sock create latency --eps=0.01
//   seq 1 1000000 | mrlquant_client --uds=/tmp/mrlquant.sock add latency -
//   mrlquant_client --uds=/tmp/mrlquant.sock query latency 0.5
//   mrlquant_client --uds=/tmp/mrlquant.sock quantiles latency 0.5 0.9 0.99
//   mrlquant_client --uds=/tmp/mrlquant.sock snapshot latency out.ckpt
//   mrlquant_client --uds=/tmp/mrlquant.sock stats [latency]
//   mrlquant_client --uds=/tmp/mrlquant.sock delete latency

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "daemon_main.h"
#include "server/client.h"

namespace {

using mrl::Status;
using mrl::cli::ParseFlag;
using mrl::cli::ParseIntFlag;
using mrl::server::Client;
using mrl::server::StatsReply;
using mrl::server::TenantConfig;

void Usage() {
  std::fprintf(
      stderr,
      "usage: mrlquant_client (--uds=PATH | --host=IP --port=N)\n"
      "                       [--timeout-ms=N] CMD ...\n"
      "  create NAME [--eps=E] [--delta=D] [--seed=S]\n"
      "  add NAME V...       ('-' reads whitespace-separated values "
      "from stdin)\n"
      "  query NAME PHI\n"
      "  quantiles NAME PHI...\n"
      "  snapshot NAME FILE\n"
      "  delete NAME\n"
      "  stats [NAME]\n"
      "  ping                (health probe; --timeout-ms bounds the wait,\n"
      "                       default 2000)\n");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "mrlquant_client: %s\n", status.message().c_str());
  return 1;
}

/// A whole-string decimal: empty text, leading whitespace or trailing
/// junk is a usage error (exit 2).
double ParseDouble(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' ||
      std::isspace(static_cast<unsigned char>(*text))) {
    std::fprintf(stderr, "mrlquant_client: bad number: '%s'\n", text);
    std::exit(2);
  }
  return v;
}

/// --seed takes the full u64 range, so it cannot go through ParseIntFlag
/// (a long); it is as strict: digits only, no sign, no overflow.
std::uint64_t ParseSeed(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "mrlquant_client: bad integer for --seed: %s\n",
                 text.c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string uds, host = "127.0.0.1";
  long port = 0;  // unset; a client cannot dial port 0
  int timeout_ms = -1;
  int i = 1;
  for (; i < argc; ++i) {
    long value = 0;
    if (ParseFlag(argv[i], "--uds", &uds)) continue;
    if (ParseFlag(argv[i], "--host", &host)) continue;
    if (ParseIntFlag(argv[i], "--port", 1, 65535, &port)) continue;
    if (ParseIntFlag(argv[i], "--timeout-ms", 0, INT_MAX, &value)) {
      timeout_ms = static_cast<int>(value);
      continue;
    }
    break;
  }
  if (i >= argc || (uds.empty() && port == 0)) {
    Usage();
    return 2;
  }
  const std::string cmd_peek = argv[i];
  // ping is a liveness probe: never hang on a wedged server, so a bounded
  // wait is the default rather than opt-in.
  if (cmd_peek == "ping" && timeout_ms < 0) timeout_ms = 2000;

  mrl::Result<Client> connected =
      !uds.empty()
          ? Client::ConnectUnix(uds, timeout_ms)
          : Client::ConnectTcp(host, static_cast<std::uint16_t>(port),
                               timeout_ms);
  if (!connected.ok()) return Fail(connected.status());
  Client client = std::move(connected).value();
  if (timeout_ms > 0) {
    const Status status = client.SetIoTimeout(timeout_ms);
    if (!status.ok()) return Fail(status);
  }

  const std::string cmd = argv[i++];
  if (cmd == "ping") {
    const Status status = client.Ping();
    if (!status.ok()) return Fail(status);
    std::printf("pong\n");
    return 0;
  }
  if (cmd == "create") {
    if (i >= argc) {
      Usage();
      return 2;
    }
    const std::string name = argv[i++];
    TenantConfig config;
    for (; i < argc; ++i) {
      std::string v;
      if (ParseFlag(argv[i], "--eps", &v)) {
        config.eps = ParseDouble(v.c_str());
      } else if (ParseFlag(argv[i], "--delta", &v)) {
        config.delta = ParseDouble(v.c_str());
      } else if (ParseFlag(argv[i], "--seed", &v)) {
        config.seed = ParseSeed(v);
      } else {
        std::fprintf(stderr, "mrlquant_client: unknown flag: %s\n", argv[i]);
        return 2;
      }
    }
    const Status status = client.CreateSketch(name, config);
    if (!status.ok()) return Fail(status);
    std::printf("created %s\n", name.c_str());
    return 0;
  }

  if (cmd == "add") {
    if (i >= argc) {
      Usage();
      return 2;
    }
    const std::string name = argv[i++];
    std::vector<double> values;
    if (i < argc && std::strcmp(argv[i], "-") == 0) {
      double v;
      while (std::cin >> v) values.push_back(v);
    } else {
      for (; i < argc; ++i) values.push_back(ParseDouble(argv[i]));
    }
    if (values.empty()) {
      std::fprintf(stderr, "mrlquant_client: no values to add\n");
      return 2;
    }
    mrl::Result<std::uint64_t> count = client.AddBatch(name, values);
    if (!count.ok()) return Fail(count.status());
    std::printf("count=%llu\n",
                static_cast<unsigned long long>(count.value()));
    return 0;
  }

  if (cmd == "query") {
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    mrl::Result<double> answer =
        client.Query(argv[i], ParseDouble(argv[i + 1]));
    if (!answer.ok()) return Fail(answer.status());
    std::printf("%.17g\n", answer.value());
    return 0;
  }

  if (cmd == "quantiles") {
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string name = argv[i++];
    std::vector<double> phis;
    for (; i < argc; ++i) phis.push_back(ParseDouble(argv[i]));
    std::vector<mrl::Value> answers;
    const Status status = client.QueryMulti(name, phis, &answers);
    if (!status.ok()) return Fail(status);
    for (std::size_t j = 0; j < answers.size(); ++j) {
      std::printf("phi=%g value=%.17g\n", phis[j], answers[j]);
    }
    return 0;
  }

  if (cmd == "snapshot") {
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    std::vector<std::uint8_t> blob;
    const Status status = client.Snapshot(argv[i], &blob);
    if (!status.ok()) return Fail(status);
    std::ofstream out(argv[i + 1], std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) {
      std::fprintf(stderr, "mrlquant_client: cannot write %s\n", argv[i + 1]);
      return 1;
    }
    std::printf("wrote %zu bytes to %s\n", blob.size(), argv[i + 1]);
    return 0;
  }

  if (cmd == "delete") {
    if (i >= argc) {
      Usage();
      return 2;
    }
    const Status status = client.Delete(argv[i]);
    if (!status.ok()) return Fail(status);
    std::printf("deleted %s\n", argv[i]);
    return 0;
  }

  if (cmd == "stats") {
    const std::string name = i < argc ? argv[i] : "";
    mrl::Result<StatsReply> stats = client.Stats(name);
    if (!stats.ok()) return Fail(stats.status());
    const StatsReply& reply = stats.value();
    std::printf("tenants=%llu total_count=%llu\n",
                static_cast<unsigned long long>(reply.num_tenants),
                static_cast<unsigned long long>(reply.total_count));
    if (!name.empty()) {
      if (!reply.tenant_present) {
        std::printf("tenant %s: not present\n", name.c_str());
      } else {
        std::printf(
            "tenant %s: count=%llu memory_elements=%llu\n", name.c_str(),
            static_cast<unsigned long long>(reply.tenant_count),
            static_cast<unsigned long long>(reply.tenant_memory_elements));
      }
    }
    return 0;
  }

  Usage();
  return 2;
}
