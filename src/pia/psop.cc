#include "src/pia/psop.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <span>

#include "src/obs/trace.h"
#include "src/sketch/sketch.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace indaas {
namespace {

// Elements per ComputePool() chunk: one batch of the IFMA kernel, which
// raises eight bases to the key at once.
constexpr size_t kChunk = 8;

// Runs fn(begin, end) over kChunk-element chunks of [0, n): on
// ComputePool() once there are two chunks to spread, inline otherwise, so
// a party of at most one chunk never starts the pool.
void ForEachChunk(size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n <= kChunk) {
    fn(0, n);
    return;
  }
  ComputePool().ParallelForChunked(n, kChunk, fn);
}

}  // namespace

std::vector<std::string> DisambiguateMultiset(const std::vector<std::string>& elements) {
  std::map<std::string, size_t> seen;
  std::vector<std::string> out;
  out.reserve(elements.size());
  for (const std::string& element : elements) {
    size_t occurrence = ++seen[element];
    out.push_back(element + "||" + std::to_string(occurrence));
  }
  return out;
}

std::vector<BigUint> HashAndEncrypt(const CommutativeGroup& group, const CommutativeKey& key,
                                    const std::vector<std::string>& elements,
                                    HashAlgorithm hash) {
  std::vector<BigUint> out(elements.size());
  ForEachChunk(elements.size(), [&](size_t begin, size_t end) {
    const std::span<BigUint> chunk(out.begin() + begin, out.begin() + end);
    for (size_t i = begin; i < end; ++i) {
      out[i] = group.HashToElement(elements[i], hash);
    }
    key.EncryptBatch(group, chunk, chunk);
  });
  return out;
}

void EncryptInPlace(const CommutativeGroup& group, const CommutativeKey& key,
                    std::vector<BigUint>& elements) {
  ForEachChunk(elements.size(), [&](size_t begin, size_t end) {
    const std::span<BigUint> chunk(elements.begin() + begin, elements.begin() + end);
    key.EncryptBatch(group, chunk, chunk);
  });
}

RingParty::RingParty(RingConfig config, PartyStats* stats)
    : config_(std::move(config)),
      meter_(stats, config_.mode == RingMode::kExact ? "psop" : "sketch"),
      rng_(config_.psop.seed + 0x9E3779B97F4A7C15ULL * (config_.members[config_.position] + 1)) {}

Result<RingParty> RingParty::Create(RingConfig config, PartyStats* stats) {
  if (config.members.size() < 2 || config.position >= config.members.size()) {
    return InvalidArgumentError(StrFormat("P-SOP ring: need two or more parties and a position "
                                          "inside the ring, got position %zu of %zu",
                                          config.position, config.members.size()));
  }
  if (config.mode == RingMode::kSketch) {
    INDAAS_RETURN_IF_ERROR(ValidateSketchK(config.sketch_k));
  }
  RingParty party(std::move(config), stats);
  if (party.config_.mode == RingMode::kExact) {
    INDAAS_ASSIGN_OR_RETURN(party.group_,
                            CommutativeGroup::CreateWellKnown(party.config_.psop.group_bits));
    INDAAS_ASSIGN_OR_RETURN(party.key_, CommutativeKey::Generate(*party.group_, party.rng_));
  }
  return party;
}

Result<RingMessage> RingParty::Start(const std::vector<std::string>& dataset) {
  RingMessage out;
  out.origin = config_.members[config_.position];
  if (config_.mode == RingMode::kSketch) {
    if (dataset.empty()) {
      return InvalidArgumentError("sketch ring: empty dataset");
    }
    INDAAS_TRACE_SPAN("pia.psop.sketch.build");
    PartyComputeTimer timer(meter_);
    own_.resize(config_.sketch_k);
    sketch::BuildSketch({config_.sketch_k, PsopSketchSeed(config_.psop.seed)}, dataset,
                        own_.data());
    agree_.assign(config_.sketch_k, 1);
    out.kind = RingMessage::Kind::kSketch;
    out.registers = own_;
    return out;
  }
  INDAAS_TRACE_SPAN("pia.psop.encrypt_permute");
  PartyComputeTimer timer(meter_);
  out.element_bytes = static_cast<uint32_t>(group_->ElementBytes());
  out.elements = HashAndEncrypt(*group_, *key_, DisambiguateMultiset(dataset), config_.psop.hash);
  meter_.AddEncryptOps(out.elements.size());
  rng_.Shuffle(out.elements);
  return out;
}

Result<std::optional<RingMessage>> RingParty::Step(RingMessage in) {
  using Kind = RingMessage::Kind;
  const size_t m = config_.members.size();
  const bool exact = config_.mode == RingMode::kExact;
  const bool ring_hop = exact && received_ < m;
  const size_t hop = exact && !ring_hop ? received_ - m : received_;
  const Kind kind = !exact ? Kind::kSketch : ring_hop ? Kind::kDataset : Kind::kShare;
  // After hop h a party holds the set of the party h + 1 places before it.
  const uint32_t origin = config_.members[(config_.position + m - hop - 1) % m];
  if (in.kind != kind || in.origin != origin) {
    return ProtocolError(StrFormat("ring round %zu got message kind %d of origin %u, want kind "
                                   "%d of origin %u",
                                   received_, static_cast<int>(in.kind), in.origin,
                                   static_cast<int>(kind), origin));
  }
  if (exact ? in.element_bytes != group_->ElementBytes()
            : in.registers.size() != config_.sketch_k) {
    return ProtocolError(StrFormat("ring peers disagree on element width (%u) or sketch size (%zu)",
                                   in.element_bytes, in.registers.size()));
  }
  ++received_;
  PartyComputeTimer timer(meter_);
  if (ring_hop && hop + 1 < m) {
    EncryptInPlace(*group_, *key_, in.elements);
    meter_.AddEncryptOps(in.elements.size());
    rng_.Shuffle(in.elements);
    return std::optional<RingMessage>(std::move(in));
  }
  if (exact) {
    std::set<std::string> local;  // a set counts once per ciphertext
    for (const BigUint& element : in.elements) {
      local.insert(element.ToHex());
    }
    for (const std::string& ciphertext : local) {
      ++presence_[ciphertext];
    }
  } else {
    for (uint32_t r = 0; r < config_.sketch_k; ++r) {
      agree_[r] &= in.registers[r] == own_[r] ? 1 : 0;
    }
  }
  if (ring_hop) {
    in.kind = Kind::kShare;  // home, under every key: start the all-gather
  } else if (hop + 2 == m) {
    return std::optional<RingMessage>();  // every set has been counted
  }
  return std::optional<RingMessage>(std::move(in));
}

PsopResult RingParty::Finish() {
  PartyComputeTimer timer(meter_);
  PsopResult result;
  if (config_.mode == RingMode::kExact) {
    result.union_size = presence_.size();
    for (const auto& [ciphertext, count] : presence_) {
      result.intersection += count == config_.members.size() ? 1 : 0;
    }
  } else {
    result.union_size = config_.sketch_k;
    for (uint8_t agrees : agree_) {
      result.intersection += agrees;
    }
  }
  result.jaccard = result.union_size == 0 ? 0.0
                                          : static_cast<double>(result.intersection) /
                                                static_cast<double>(result.union_size);
  return result;
}

Status ValidateSketchK(uint64_t sketch_k) {
  if (sketch_k == 0 || sketch_k > kMaxSketchK) {
    return InvalidArgumentError(StrFormat("sketch of %llu registers is outside [1, %u]",
                                          static_cast<unsigned long long>(sketch_k),
                                          kMaxSketchK));
  }
  return Status::Ok();
}

namespace {

// The in-process runner: k parties stepped round by round on the caller's
// thread, party i's message of each exchange going to party i + 1. Each hop
// meters its element bytes, or kSketchHopOverheadBytes + SketchBytes for a
// sketch, as the bytes a network would carry.
Result<PsopResult> RunRing(const std::vector<std::vector<std::string>>& datasets, RingMode mode,
                           uint32_t sketch_k, const PsopOptions& options) {
  const size_t k = datasets.size();
  INDAAS_TRACE_SPAN_NAMED(span, mode == RingMode::kExact ? "pia.psop" : "pia.psop.sketch");
  span.Annotate("parties", std::to_string(k));
  if (k < 2) {
    return InvalidArgumentError("P-SOP ring: need at least two parties");
  }
  RingConfig config{mode, options, sketch_k, std::vector<uint32_t>(k), 0};
  std::iota(config.members.begin(), config.members.end(), 0u);
  std::vector<PartyStats> stats(k);  // the parties' meters point here
  std::vector<RingParty> parties;
  std::vector<RingMessage> in_flight(k);
  for (size_t i = 0; i < k; ++i) {
    config.position = i;
    INDAAS_ASSIGN_OR_RETURN(RingParty party, RingParty::Create(config, &stats[i]));
    INDAAS_ASSIGN_OR_RETURN(in_flight[i], party.Start(datasets[i]));
    parties.push_back(std::move(party));
  }
  for (bool done = false; !done;) {
    std::rotate(in_flight.rbegin(), in_flight.rbegin() + 1, in_flight.rend());
    for (size_t i = 0; i < k; ++i) {
      const size_t bytes = mode == RingMode::kSketch
                               ? kSketchHopOverheadBytes + sketch::SketchBytes(sketch_k)
                               : in_flight[i].elements.size() * in_flight[i].element_bytes;
      parties[(i + k - 1) % k].meter().AddBytesSent(bytes);
      parties[i].meter().AddBytesReceived(bytes);
      INDAAS_ASSIGN_OR_RETURN(std::optional<RingMessage> next,
                              parties[i].Step(std::move(in_flight[i])));
      done = !next.has_value();
      in_flight[i] = done ? RingMessage{} : std::move(*next);
    }
  }
  PsopResult result = parties[0].Finish();
  for (size_t i = 1; i < k; ++i) {
    parties[i].Finish();  // every party counts for itself, as over sockets
  }
  result.party_stats = std::move(stats);
  return result;
}

}  // namespace

Result<PsopResult> RunPsop(const std::vector<std::vector<std::string>>& datasets,
                           const PsopOptions& options) {
  return RunRing(datasets, RingMode::kExact, 0, options);
}

Result<PsopResult> RunPsopWithMinHash(const std::vector<std::vector<std::string>>& datasets,
                                      size_t m, const PsopOptions& options) {
  INDAAS_RETURN_IF_ERROR(ValidateSketchK(m));
  INDAAS_TRACE_SPAN("pia.psop.minhash");
  // All parties derive the same register hashes from the protocol seed (as
  // they would agree on hash functions out of band). Sampling reuses the
  // sketch engine's arg-min, so the chosen elements match the registers the
  // sketch-exchange mode would ship — and are stable across runs and hosts.
  const sketch::SketchParams params{static_cast<uint32_t>(m), options.seed ^ 0x4D696E4861736821ULL};
  std::vector<std::vector<std::string>> samples;
  samples.reserve(datasets.size());
  std::vector<uint32_t> registers(m);
  std::vector<uint32_t> argmin;
  for (const std::vector<std::string>& dataset : datasets) {
    if (dataset.empty()) {
      return InvalidArgumentError("RunPsopWithMinHash: empty dataset");
    }
    sketch::BuildSketch(params, dataset, registers.data(), &argmin);
    std::vector<std::string> sample;
    sample.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      // arg-min element under register hash i, tagged with the register
      // index so index-i entries only match index-i entries.
      sample.push_back(StrFormat("%zu#", i) + dataset[argmin[i]]);
    }
    samples.push_back(std::move(sample));
  }
  INDAAS_ASSIGN_OR_RETURN(PsopResult result, RunPsop(samples, options));
  // Jaccard estimate is |∩ samples| / m (§4.2.4), not intersection/union.
  result.jaccard = static_cast<double>(result.intersection) / static_cast<double>(m);
  return result;
}

uint64_t PsopSketchSeed(uint64_t protocol_seed) {
  return protocol_seed ^ 0x536B657463682121ULL;  // "Sketch!!"
}

Result<PsopResult> RunPsopWithSketch(const std::vector<std::vector<std::string>>& datasets,
                                     uint32_t sketch_k, const PsopOptions& options) {
  return RunRing(datasets, RingMode::kSketch, sketch_k, options);
}

}  // namespace indaas
