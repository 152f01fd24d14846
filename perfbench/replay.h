#ifndef MRLQUANT_PERFBENCH_REPLAY_H_
#define MRLQUANT_PERFBENCH_REPLAY_H_

// The traced run's in-process half. Tracer keeps spans in memory; Mirror
// holds in-process copies of what the daemons hold (one SketchRegistry per
// daemon plus a twin UnknownNSketch per tenant part, same configs and
// seeds, fed the same values) and replays every request through the public
// function of each layer, in the order the daemon calls them, inside one
// span per layer.

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/partial.h"
#include "core/unknown_n.h"
#include "procs.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "stats.h"

namespace perfbench {

enum Layer : std::uint16_t {
  kWriteRequest,
  kQueryRequest,
  kClientEncode,
  kCrc,
  kFrameDecode,
  kRequestDecode,
  kDoubleDecode,
  kRegistryAdd,
  kSketchAdd,
  kResponseEncode,
  kResponseDecode,
  kSocket,
  kRegistryQuery,
  kSketchQuery,
  kPartialFetch,
  kPartialDeserialize,
  kPartialMerge,
  kRouterRouted,
  kRouterDirect,
  kNumLayers,
};

inline constexpr const char* kLayerNames[kNumLayers] = {
    "write",
    "query",
    "client.encode",
    "protocol.crc",
    "protocol.frame_decode",
    "protocol.request_decode",
    "protocol.double_decode",
    "registry.add_batch",
    "sketch.add_batch",
    "protocol.response_encode",
    "client.response_decode",
    "transport.socket",
    "registry.query",
    "sketch.query",
    "partial.fetch",
    "partial.deserialize",
    "partial.merge",
    "router.routed",
    "router.direct",
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Spans in memory, written out once at the end. A span opened with no
/// parent starts a new request id; its descendants share it.
class Tracer {
 public:
  Tracer() { spans_.reserve(std::size_t{1} << 18); }

  std::uint32_t Begin(Layer layer, std::uint32_t parent, std::size_t units) {
    if (parent == Span::kNoParent) ++request_;
    Span s;
    s.name = layer;
    s.units = static_cast<std::uint16_t>(units);
    s.parent = parent;
    s.request = request_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void End(std::uint32_t index) { spans_[index].end_ns = NowNs(); }

  template <typename F>
  void Time(Layer layer, std::uint32_t parent, std::size_t units, F&& f) {
    const std::uint32_t index = Begin(layer, parent, units);
    f();
    End(index);
  }

  const std::vector<Span>& spans() const { return spans_; }

  void WriteCsv(const std::string& path) const {
    std::ofstream out(path);
    out << "index,request,parent,name,units,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.request << ','
          << (s.parent == Span::kNoParent ? -1 : static_cast<long>(s.parent))
          << ',' << kLayerNames[s.name] << ',' << s.units << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t request_ = 0;
};

/// One frame of a write request: its tenant and its values.
struct Frame {
  std::size_t tenant = 0;
  std::span<const double> values;
};

/// The router derives the seed of partition i as seed + i * this stride
/// (src/router/router.cc); the mirror copies it so its partitions sample
/// like the daemons' do.
inline constexpr std::uint64_t kRouterSeedStride = 0x9e3779b97f4a7c15ULL;

class Mirror {
 public:
  /// `partitioned[t]` spreads tenant t over every daemon (as the router's
  /// --partition does); other tenants live on daemon t % daemons.
  Mirror(int daemons, int shards, const std::vector<std::string>& names,
         const std::vector<mrl::server::TenantConfig>& configs,
         const std::vector<bool>& partitioned)
      : names_(names), configs_(configs), parts_(names.size()) {
    for (int i = 0; i < daemons; ++i) {
      mrl::server::RegistryOptions options;
      options.max_tenants = 1024;
      options.num_partitions = static_cast<std::size_t>(shards);
      registries_.push_back(
          std::make_unique<mrl::server::SketchRegistry>(options));
    }
    for (std::size_t t = 0; t < names.size(); ++t) {
      if (partitioned[t]) {
        for (int i = 0; i < daemons; ++i) {
          mrl::server::TenantConfig config = configs[t];
          config.seed += static_cast<std::uint64_t>(i) * kRouterSeedStride;
          AddPart(t, i, config);
        }
      } else {
        AddPart(t, static_cast<int>(t % static_cast<std::size_t>(daemons)),
                configs[t]);
      }
    }
  }

  /// Untimed ingest (warm-up), keeping the mirror in step with the daemons.
  void Ingest(std::size_t tenant, std::span<const double> values) {
    ForEachSlice(tenant, values, [&](Part& part, std::span<const double> s) {
      Check(part.registry->AddBatch(names_[tenant], s), "mirror add");
      part.twin->AddBatch(s);
    });
  }

  /// Replays one ADD_BATCH round trip (several frames when pipelined) under
  /// `root`, one span per layer covering every frame.
  void TraceWrite(Tracer& tr, std::uint32_t root,
                  const std::vector<Frame>& frames) {
    const std::size_t n = frames.size();
    requests_.resize(n);
    responses_.resize(n);
    doubles_.resize(n);
    views_.resize(n);
    decoded_.resize(n);
    counts_.assign(n, 0);

    const std::uint32_t encode = tr.Begin(kClientEncode, root, n);
    for (std::size_t f = 0; f < n; ++f) {
      requests_[f].clear();
      mrl::server::EncodeAddBatch(names_[frames[f].tenant], frames[f].values,
                                  &requests_[f]);
    }
    tr.End(encode);
    tr.Time(kCrc, encode, n, [&] { CrcAll(); });

    const std::uint32_t decode = tr.Begin(kFrameDecode, root, n);
    for (std::size_t f = 0; f < n; ++f) {
      views_[f] = Check(mrl::server::DecodeFrame(requests_[f].data(),
                                                 requests_[f].size()),
                        "frame decode");
    }
    tr.End(decode);
    tr.Time(kCrc, decode, n, [&] { CrcAll(); });

    tr.Time(kRequestDecode, root, n, [&] {
      for (std::size_t f = 0; f < n; ++f) {
        decoded_[f] = Check(mrl::server::DecodeAddBatch(views_[f].payload,
                                                        views_[f].payload_len),
                            "request decode");
      }
    });
    tr.Time(kDoubleDecode, root, n, [&] {
      for (std::size_t f = 0; f < n; ++f) {
        Check(mrl::server::DecodeDoublesInto(decoded_[f].values_le,
                                             decoded_[f].count,
                                             /*reject_nan=*/true, &doubles_[f]),
              "double decode");
      }
    });
    tr.Time(kRegistryAdd, root, n, [&] {
      for (std::size_t f = 0; f < n; ++f) {
        const std::size_t t = frames[f].tenant;
        ForEachSlice(t, doubles_[f],
                     [&](Part& part, std::span<const double> s) {
                       counts_[f] +=
                           Check(part.registry->AddBatch(names_[t], s),
                                 "registry add");
                     });
      }
    });
    tr.Time(kSketchAdd, root, n, [&] {
      for (std::size_t f = 0; f < n; ++f) {
        ForEachSlice(frames[f].tenant, doubles_[f],
                     [&](Part& part, std::span<const double> s) {
                       part.twin->AddBatch(s);
                     });
      }
    });
    tr.Time(kResponseEncode, root, n, [&] {
      for (std::size_t f = 0; f < n; ++f) {
        responses_[f].clear();
        mrl::server::EncodeAddBatchOk(counts_[f], &responses_[f]);
      }
    });
    tr.Time(kResponseDecode, root, n, [&] {
      for (std::size_t f = 0; f < n; ++f) {
        const mrl::server::FrameView frame =
            Check(mrl::server::DecodeFrame(responses_[f].data(),
                                           responses_[f].size()),
                  "response frame");
        const mrl::server::ResponseView response = Check(
            mrl::server::DecodeResponse(frame.payload, frame.payload_len),
            "response decode");
        sink_ += Check(mrl::server::DecodeAddBatchOk(response), "add ok");
      }
    });
    for (std::size_t f = 0; f < n; ++f) {
      wire_bytes_ += requests_[f].size();
      wire_values_ += frames[f].values.size();
    }
  }

  /// Replays one QUERY under `root`: registry and twin sketch for a tenant
  /// on one daemon, and — when `with_partial` — the router's fan-out path
  /// (FETCH_SUMMARY export, wire decode, Section 6 merge) over every part.
  void TraceQuery(Tracer& tr, std::uint32_t root, std::size_t tenant,
                  double phi, bool with_partial) {
    std::vector<Part>& parts = parts_[tenant];
    const std::string& name = names_[tenant];
    if (parts.size() == 1) {
      tr.Time(kRegistryQuery, root, 1, [&] {
        sink_ += Check(parts[0].registry->Query(name, phi), "registry query");
      });
      tr.Time(kSketchQuery, root, 1, [&] {
        sink_ += Check(parts[0].twin->Query(phi), "sketch query");
      });
    }
    if (!with_partial) return;
    blobs_.resize(parts.size());
    summaries_.clear();
    tr.Time(kPartialFetch, root, 1, [&] {
      for (std::size_t i = 0; i < parts.size(); ++i) {
        Check(parts[i].registry->FetchPartial(name, &blobs_[i]),
              "fetch partial");
      }
    });
    tr.Time(kPartialDeserialize, root, 1, [&] {
      for (const auto& blob : blobs_) {
        summaries_.push_back(Check(mrl::DeserializePartialSummary(blob),
                                   "deserialize partial"));
      }
    });
    tr.Time(kPartialMerge, root, 1, [&] {
      sink_ += Check(mrl::MergePartialQuantiles(summaries_,
                                                configs_[tenant].seed, {phi}),
                     "merge partials")[0];
    });
    for (const auto& blob : blobs_) blob_bytes_ += blob.size();
    blob_count_ += blobs_.size();
  }

  double wire_bytes_per_value() const {
    return wire_values_ == 0 ? 0 : wire_bytes_ / wire_values_;
  }
  double blob_bytes() const {
    return blob_count_ == 0 ? 0 : blob_bytes_ / blob_count_;
  }

  struct SketchState {
    double collapses_per_mvalue = 0;
    double sampling_rate = 0;  ///< mean over twins
    double kept_ratio = 0;     ///< elements held / values in
  };
  SketchState Sketches() const {
    double collapses = 0, values = 0, held = 0, rate = 0, twins = 0;
    for (const auto& parts : parts_) {
      for (const Part& part : parts) {
        collapses += static_cast<double>(part.twin->tree_stats().num_collapses);
        values += static_cast<double>(part.twin->count());
        rate += static_cast<double>(part.twin->sampling_rate());
        twins += 1;
        mrl::PartialSummary summary;
        Check(part.twin->ExportPartial(&summary), "export partial");
        for (const auto& buffer : summary.buffers) {
          held += static_cast<double>(buffer.values.size());
        }
      }
    }
    SketchState s;
    if (values > 0) {
      s.collapses_per_mvalue = collapses / values * 1e6;
      s.kept_ratio = held / values;
    }
    s.sampling_rate = twins > 0 ? rate / twins : 0;
    return s;
  }

 private:
  struct Part {
    mrl::server::SketchRegistry* registry;
    std::unique_ptr<mrl::UnknownNSketch> twin;
  };

  void AddPart(std::size_t tenant, int daemon,
               const mrl::server::TenantConfig& config) {
    mrl::server::SketchRegistry* registry = registries_[daemon].get();
    Check(registry->Create(names_[tenant], config), "mirror create");
    mrl::UnknownNOptions options;
    options.eps = config.eps;
    options.delta = config.delta;
    options.seed = config.seed;
    parts_[tenant].push_back(
        {registry, std::make_unique<mrl::UnknownNSketch>(Check(
                       mrl::UnknownNSketch::Create(options), "twin"))});
  }

  /// Contiguous slices, one per part, as the router deals a partitioned
  /// batch out (trailing parts may get an empty slice).
  template <typename F>
  void ForEachSlice(std::size_t tenant, std::span<const double> values,
                    F&& f) {
    std::vector<Part>& parts = parts_[tenant];
    const std::size_t per = (values.size() + parts.size() - 1) / parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const std::size_t begin = std::min(i * per, values.size());
      const std::size_t end = std::min(values.size(), begin + per);
      f(parts[i], values.subspan(begin, end - begin));
    }
  }

  void CrcAll() {
    constexpr std::size_t kHeader = mrl::server::kFrameHeaderSize;
    for (const auto& request : requests_) {
      sink_ += mrl::server::Crc32(request.data() + kHeader,
                                  request.size() - kHeader);
    }
  }

  std::vector<std::string> names_;
  std::vector<mrl::server::TenantConfig> configs_;
  std::vector<std::unique_ptr<mrl::server::SketchRegistry>> registries_;
  std::vector<std::vector<Part>> parts_;

  std::vector<std::vector<std::uint8_t>> requests_, responses_, blobs_;
  std::vector<std::vector<double>> doubles_;
  std::vector<mrl::server::FrameView> views_;
  std::vector<mrl::server::AddBatchRequest> decoded_;
  std::vector<std::uint64_t> counts_;
  std::vector<mrl::PartialSummary> summaries_;
  double wire_bytes_ = 0, wire_values_ = 0;
  double blob_bytes_ = 0, blob_count_ = 0;
  double sink_ = 0;  ///< folds results in so no replayed call is dropped
};

}  // namespace perfbench

#endif  // MRLQUANT_PERFBENCH_REPLAY_H_
