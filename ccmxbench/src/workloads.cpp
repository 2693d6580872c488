#include "workloads.hpp"

#include <algorithm>
#include <ctime>
#include <map>
#include <stdexcept>
#include <utility>

#include "comm/channel.hpp"
#include "comm/partition.hpp"
#include "core/census.hpp"
#include "core/construction.hpp"
#include "core/reductions.hpp"
#include "instances.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/send_half.hpp"
#include "vlsi/mesh.hpp"

namespace ccmxbench {

namespace {

namespace comm = ccmx::comm;
namespace core = ccmx::core;
namespace la = ccmx::la;
namespace proto = ccmx::proto;
namespace vlsi = ccmx::vlsi;
using ccmx::num::BigInt;

/// Times the library calls of one instance and, with a recorder, records
/// each as a span under the instance's root span.
class Calls {
 public:
  Calls(SpanRecorder* recorder, std::uint64_t instance)
      : recorder_(recorder), instance_(instance) {
    if (recorder_ != nullptr) {
      root_ = recorder_->open("bench.instance", instance_, now_ns());
    }
  }
  ~Calls() {
    if (recorder_ != nullptr) recorder_->close(root_, now_ns());
  }
  Calls(const Calls&) = delete;
  Calls& operator=(const Calls&) = delete;

  template <class F>
  auto operator()(std::string_view span_name, F&& call) {
    const Finish finish(*this, span_name);
    return call();
  }

  [[nodiscard]] double seconds() const {
    return static_cast<double>(elapsed_ns_) * 1e-9;
  }

 private:
  // Stops the clock (and closes the span) when the call returns or throws.
  class Finish {
   public:
    Finish(Calls& calls, std::string_view name)
        : calls_(calls), start_(now_ns()) {
      if (calls_.recorder_ != nullptr) {
        id_ = calls_.recorder_->open(name, calls_.instance_, start_);
      }
    }
    ~Finish() {
      const std::int64_t end = now_ns();
      calls_.elapsed_ns_ += end - start_;
      if (calls_.recorder_ != nullptr) calls_.recorder_->close(id_, end);
    }
    Finish(const Finish&) = delete;
    Finish& operator=(const Finish&) = delete;

   private:
    Calls& calls_;
    std::int64_t start_;
    std::uint64_t id_ = 0;
  };

  SpanRecorder* recorder_;
  std::uint64_t instance_;
  std::uint64_t root_ = 0;
  std::int64_t elapsed_ns_ = 0;
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void check(InstanceOutcome& out, bool ok, const char* what) {
  if (!ok && out.failure.empty()) out.failure = what;
}

void count(InstanceOutcome& out, const comm::ProtocolOutcome& run) {
  out.comm_bits += run.bits;
  out.comm_rounds += run.rounds;
}

/// Bits the send-half protocol must move on an n x n matrix of k-bit
/// entries under pi_0: agent 0's n * n/2 entries, plus the answer bit.
std::uint64_t send_half_bits(std::size_t n, unsigned k) {
  return static_cast<std::uint64_t>(n) * (n / 2) * k + 1;
}

/// recommend_prime_bits(n, k, 0.01) once per (n, k): the choice of prime
/// width is a protocol parameter, so it is set up, not measured per call.
class PrimeBits {
 public:
  unsigned operator()(std::size_t n, unsigned k) {
    const auto key = std::make_pair(n, k);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    return cache_[key] = proto::recommend_prime_bits(n, k, 0.01);
  }

 private:
  std::map<std::pair<std::size_t, unsigned>, unsigned> cache_;
};

// --- exact-singularity ------------------------------------------------------
//
// The `ccmx_cli singularity` call sequence.  Bareiss elimination and BigInt
// exact division take nearly all of its time; the singular and nonsingular
// halves let an early exit or an engine dispatch show on one side only.

class ExactSingularity final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    Xoshiro256 rng(seed);
    PrimeBits prime_bits;
    const core::ConstructionParams hard(31, 8);
    items_.clear();
    for (std::size_t block = 0; block < kBlocks; ++block) {
      for (const Slot& slot : kMix) {
        Item item{slot.kind == Kind::kHardCompleted
                      ? hard_completed(hard, rng)
                  : slot.kind == Kind::kHardRandom ? hard_random(hard, rng)
                  : slot.kind == Kind::kDuplicate
                      ? planted_duplicate_row(slot.n, slot.k, rng)
                      : random_entries(slot.n, slot.n, slot.k, rng),
                  comm::MatrixBitLayout(slot.n, slot.n, slot.k),
                  comm::Partition(0),
                  slot.kind == Kind::kDuplicate ||
                      slot.kind == Kind::kHardCompleted,
                  prime_bits(slot.n, slot.k), rng()};
        item.partition = comm::Partition::pi0(item.layout);
        items_.push_back(std::move(item));
      }
    }
    label_seed_ = rng();
  }

  void label() override {
    Xoshiro256 rng(label_seed_);
    for (const Item& item : items_) {
      if (!item.singular && !certify_nonsingular(item.m, rng)) {
        throw std::runtime_error("exact-singularity: uncertifiable draw");
      }
    }
  }

  [[nodiscard]] std::size_t pool_size() const override { return items_.size(); }
  [[nodiscard]] std::size_t block_size() const override {
    return std::size(kMix);
  }

  InstanceOutcome run(std::size_t index, SpanRecorder* recorder,
                      std::uint64_t instance_id) override {
    const Item& item = items_[index];
    InstanceOutcome out;
    out.label = item.singular ? "singular" : "nonsingular";
    Calls calls(recorder, instance_id);
    const comm::BitVec input =
        calls("comm.encode", [&] { return item.layout.encode(item.m); });
    const bool singular =
        calls("linalg.is_singular", [&] { return la::is_singular(item.m); });
    check(out, singular == item.singular, "is_singular contradicts the label");

    const comm::ProtocolOutcome det = calls("protocols.send_half", [&] {
      return comm::execute(proto::make_send_half_singularity(item.layout),
                           input, item.partition);
    });
    check(out, det.answer == item.singular, "send-half contradicts the label");
    check(out,
          det.bits == send_half_bits(item.layout.rows(),
                                     item.layout.entry_bits()),
          "send-half bits differ from n*(n/2)*k + 1");

    const comm::ProtocolOutcome fp = calls("protocols.fingerprint", [&] {
      const proto::FingerprintProtocol protocol(
          item.layout, proto::FingerprintTask::kSingularity, item.prime_bits,
          1, item.coins);
      return comm::execute(protocol, input, item.partition);
    });
    check(out, fp.answer || !item.singular,
          "fingerprint answered nonsingular on a singular input");
    if (fp.answer && !item.singular) ++out.fp_false_singular;
    count(out, det);
    count(out, fp);
    out.latency_s = calls.seconds();
    return out;
  }

 private:
  enum class Kind { kDense, kDuplicate, kHardCompleted, kHardRandom };
  struct Slot {
    Kind kind;
    std::size_t n;
    unsigned k;
  };
  struct Item {
    la::IntMatrix m;
    comm::MatrixBitLayout layout;
    comm::Partition partition;
    bool singular;
    unsigned prime_bits;
    std::uint64_t coins;
  };

  // One block of the mix.  The weights put the median inside the n = 48
  // group and p90 inside the n = 64 group, away from the gaps between sizes.
  static constexpr Slot kMix[] = {
      {Kind::kHardCompleted, 62, 8}, {Kind::kDense, 48, 32},
      {Kind::kDense, 64, 32},        {Kind::kDense, 32, 32},
      {Kind::kDuplicate, 48, 32},    {Kind::kDuplicate, 64, 32},
      {Kind::kHardRandom, 62, 8},    {Kind::kDense, 48, 32},
      {Kind::kDense, 64, 32},        {Kind::kDuplicate, 32, 32},
      {Kind::kDuplicate, 48, 32},    {Kind::kDuplicate, 64, 32}};
  static constexpr std::size_t kBlocks = 4;

  std::vector<Item> items_;
  std::uint64_t label_seed_ = 0;
};

// --- fingerprint-protocol -----------------------------------------------------
//
// Leighton's fingerprint protocols plus the systolic mesh: bit-level
// AgentView / Channel work and mod-p elimination dominate, and BigInt barely
// runs, so a BigInt or Bareiss change should leave this workload alone.
// Every matrix runs under pi_0 and under a row/column-permuted
// entry-aligned partition, to show whether a comm speed-up depends on
// contiguous ownership.

class FingerprintWorkload final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    Xoshiro256 rng(seed);
    PrimeBits prime_bits;
    items_.clear();
    // Two blocks with the same mix: one under pi_0, one permuted.
    for (const bool permuted : {false, true}) {
      for (const auto& [n, k] : kGroups) {
        for (const Kind kind : {Kind::kDense, Kind::kPlanted, Kind::kLowRank}) {
          const comm::MatrixBitLayout layout(n, n, k);
          const comm::Partition pi0 = comm::Partition::pi0(layout);
          Item item{kind == Kind::kDense ? random_entries(n, n, k, rng)
                    : kind == Kind::kPlanted
                        ? planted_duplicate_row(n, k, rng)
                        : low_rank_01(n, n / 4, rng),
                    layout,
                    permuted ? pi0.permuted(
                                   layout,
                                   ccmx::util::random_permutation(n, rng),
                                   ccmx::util::random_permutation(n, rng))
                             : pi0,
                    kind,
                    prime_bits(n, k),
                    {rng(), rng(), rng()},
                    0};
          items_.push_back(std::move(item));
        }
      }
    }
    label_seed_ = rng();
  }

  void label() override {
    Xoshiro256 rng(label_seed_);
    const vlsi::MeshConfig config;
    for (Item& item : items_) {
      if (item.kind == Kind::kDense && !certify_nonsingular(item.m, rng)) {
        throw std::runtime_error("fingerprint-protocol: uncertifiable draw");
      }
      item.mesh_det =
          la::det_mod_p(la::reduce_mod(item.m, config.p), config.p);
    }
  }

  [[nodiscard]] std::size_t pool_size() const override { return items_.size(); }
  [[nodiscard]] std::size_t block_size() const override {
    return std::size(kGroups) * 3;
  }

  InstanceOutcome run(std::size_t index, SpanRecorder* recorder,
                      std::uint64_t instance_id) override {
    const Item& item = items_[index];
    const std::size_t n = item.layout.rows();
    const bool singular = item.kind != Kind::kDense;
    InstanceOutcome out;
    out.label = singular ? "singular" : "nonsingular";
    Calls calls(recorder, instance_id);
    const comm::BitVec input =
        calls("comm.encode", [&] { return item.layout.encode(item.m); });

    const comm::ProtocolOutcome fp = calls("protocols.fingerprint", [&] {
      const proto::FingerprintProtocol protocol(
          item.layout, proto::FingerprintTask::kSingularity, item.prime_bits,
          2, item.coins[0]);
      return comm::execute(protocol, input, item.partition);
    });
    check(out, fp.answer || !singular,
          "fingerprint answered nonsingular on a singular input");
    if (fp.answer && !singular) ++out.fp_false_singular;

    const comm::ProtocolOutcome rank = calls("protocols.rank_threshold", [&] {
      const proto::RankThresholdProtocol protocol(item.layout, n / 2,
                                                  item.prime_bits, 2,
                                                  item.coins[1]);
      return comm::execute(protocol, input, item.partition);
    });
    check(out, !rank.answer || item.kind != Kind::kLowRank,
          "rank-threshold answered rank >= n/2 on a rank <= n/4 input");

    const comm::ProtocolOutcome solve = calls("protocols.fingerprint", [&] {
      const proto::FingerprintProtocol protocol(
          item.layout, proto::FingerprintTask::kSolvability, item.prime_bits,
          2, item.coins[2]);
      return comm::execute(protocol, input, item.partition);
    });

    vlsi::MeshConfig config;
    config.input_bits = item.layout.entry_bits();
    const vlsi::MeshResult mesh = calls("vlsi.mesh", [&] {
      return vlsi::simulate_mesh_pipelined(item.m, config);
    });
    check(out, mesh.det_mod_p == item.mesh_det,
          "mesh det_mod_p differs from la::det_mod_p on the same residues");
    check(out, mesh.singular || !singular,
          "mesh answered nonsingular on a singular input");

    count(out, fp);
    count(out, rank);
    count(out, solve);
    out.mesh_cycles = mesh.cycles;
    out.bisection_bits = mesh.bisection_bits;
    out.latency_s = calls.seconds();
    return out;
  }

 private:
  enum class Kind { kDense, kPlanted, kLowRank };
  struct Item {
    la::IntMatrix m;
    comm::MatrixBitLayout layout;
    comm::Partition partition;
    Kind kind;
    unsigned prime_bits;
    std::uint64_t coins[3];
    std::uint64_t mesh_det;  // label: det mod the mesh prime
  };

  // (n, k) groups of one block, each run as dense / planted-singular /
  // low-rank.  The weights put the median inside the (96, 32) group and
  // p90 inside the (128, 32) group, away from the gaps between groups.
  static constexpr std::pair<std::size_t, unsigned> kGroups[] = {
      {64, 8},  {96, 32}, {128, 32}, {96, 8},   {128, 8}, {96, 32},
      {64, 32}, {128, 32}, {96, 32}, {128, 8}, {128, 32}};

  std::vector<Item> items_;
  std::uint64_t label_seed_ = 0;
};

// --- rational-solvability -------------------------------------------------------
//
// The `ccmx_cli solvable` call sequence.  It uses BigInt through
// gcd-normalized rationals rather than exact division, so a kernel change
// that helps Bareiss but hurts gcd shows here.

class RationalSolvability final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    Xoshiro256 rng(seed);
    items_.clear();
    for (std::size_t block = 0; block < kBlocks; ++block) {
      for (const auto& [n, k] : kGroups) {
        for (const bool planted : {true, false}) {
          Item item{planted ? system_planted_b(n, k, rng)
                            : random_entries(n, n, k, rng),
                    {},
                    {},
                    comm::MatrixBitLayout(n, n, k),
                    comm::Partition(0),
                    planted,
                    rng()};
          item.a = item.m.block(0, 0, n, n - 1);
          for (std::size_t i = 0; i < n; ++i) item.b.push_back(item.m(i, n - 1));
          item.partition = comm::Partition::pi0(item.layout);
          items_.push_back(std::move(item));
        }
      }
    }
    label_seed_ = rng();
  }

  void label() override {
    // Unsolvable when [A | b] is nonsingular: then rank A = n - 1 < n.
    Xoshiro256 rng(label_seed_);
    for (const Item& item : items_) {
      if (!item.solvable && !certify_nonsingular(item.m, rng)) {
        throw std::runtime_error("rational-solvability: uncertifiable draw");
      }
    }
  }

  [[nodiscard]] std::size_t pool_size() const override { return items_.size(); }
  [[nodiscard]] std::size_t block_size() const override {
    return std::size(kGroups) * 2;
  }

  InstanceOutcome run(std::size_t index, SpanRecorder* recorder,
                      std::uint64_t instance_id) override {
    const Item& item = items_[index];
    InstanceOutcome out;
    out.label = item.solvable ? "solvable" : "unsolvable";
    Calls calls(recorder, instance_id);
    const comm::BitVec input =
        calls("comm.encode", [&] { return item.layout.encode(item.m); });
    const bool solvable =
        calls("core.solvable", [&] { return core::solvable(item.a, item.b); });
    check(out, solvable == item.solvable, "core::solvable contradicts the label");

    const comm::ProtocolOutcome det = calls("protocols.send_half", [&] {
      return comm::execute(proto::make_send_half_solvability(item.layout),
                           input, item.partition);
    });
    check(out, det.answer == item.solvable, "send-half contradicts the label");
    check(out,
          det.bits == send_half_bits(item.layout.rows(),
                                     item.layout.entry_bits()),
          "send-half bits differ from n*(n/2)*k + 1");

    const comm::ProtocolOutcome fp = calls("protocols.fingerprint", [&] {
      const proto::FingerprintProtocol protocol(
          item.layout, proto::FingerprintTask::kSolvability, 20, 2,
          item.coins);
      return comm::execute(protocol, input, item.partition);
    });
    // b is a column of A, so the two ranks agree mod every prime.
    check(out, fp.answer || !item.solvable,
          "fingerprint answered unsolvable on a planted-b system");
    count(out, det);
    count(out, fp);
    out.latency_s = calls.seconds();
    return out;
  }

 private:
  struct Item {
    la::IntMatrix m;  // [A | b]
    la::IntMatrix a;
    std::vector<BigInt> b;
    comm::MatrixBitLayout layout;
    comm::Partition partition;
    bool solvable;
    std::uint64_t coins;
  };

  // (n, k) groups of one block, each with a planted and a random b.  The
  // weights put the median inside (16, 16) and p90 inside (24, 16), away
  // from the gaps between groups; a mid-sized group comes first because
  // the set-up warms up on it.
  static constexpr std::pair<std::size_t, unsigned> kGroups[] = {
      {16, 16}, {12, 8},  {24, 16}, {24, 8}, {16, 16}, {12, 16},
      {24, 16}, {16, 16}, {16, 8},  {24, 8}, {24, 16}, {16, 16}};
  static constexpr std::size_t kBlocks = 2;

  std::vector<Item> items_;
  std::uint64_t label_seed_ = 0;
};

// --- lemma-census ---------------------------------------------------------------
//
// The Lemma 3.4 / 3.5 counting engines.  The only workload that runs the
// parallel sweep engine (util::parallel) and the BigInt inline small path
// hard, which the other three leave unmeasured.

class LemmaCensus final : public Workload {
 public:
  explicit LemmaCensus(std::size_t nproc)
      : threads_(std::min<std::size_t>(4, std::max<std::size_t>(1, nproc))) {}

  [[nodiscard]] std::size_t threads() const override { return threads_; }

  void generate(std::uint64_t seed) override {
    Xoshiro256 rng(seed);
    items_.clear();
    for (std::size_t block = 0; block < kBlocks; ++block) {
      for (const Slot& slot : kMix) {
        const core::ConstructionParams p(slot.n, 2);
        Item item{slot.kind, p, rng(), {}, {}, 0};
        if (slot.kind == Kind::kRowCensus) {
          item.c = core::FreeParts::random(p, rng).c;
        } else if (slot.kind == Kind::kLemma35) {
          for (std::size_t t = 0; t < kTrials; ++t) {
            auto parts = core::FreeParts::random(p, rng);
            item.trials.emplace_back(std::move(parts.c), std::move(parts.e));
          }
        }
        items_.push_back(std::move(item));
      }
    }
    label_seed_ = rng();
  }

  void label() override {
    Xoshiro256 rng(label_seed_);
    for (Item& item : items_) item.check_prime = random_prime62(rng);
  }

  [[nodiscard]] std::size_t pool_size() const override { return items_.size(); }
  [[nodiscard]] std::size_t block_size() const override {
    return std::size(kMix);
  }

  InstanceOutcome run(std::size_t index, SpanRecorder* recorder,
                      std::uint64_t instance_id) override {
    const Item& item = items_[index];
    const core::ConstructionParams& p = item.params;
    InstanceOutcome out;
    Calls calls(recorder, instance_id);
    Xoshiro256 rng(item.seed);
    const auto census_call = [&](std::string_view name, auto&& call) {
      const double cpu0 = process_cpu_seconds();
      const double wall0 = calls.seconds();
      auto result = calls(name, call);
      out.pool_cpu_s += process_cpu_seconds() - cpu0;
      out.pool_wall_s += calls.seconds() - wall0;
      return result;
    };
    switch (item.kind) {
      case Kind::kRowCensus: {
        const core::RowCensus census = census_call("core.row_census", [&] {
          return core::row_census(p, item.c, std::uint64_t{1} << 24, 100000,
                                  rng);
        });
        const core::Lemma35Bounds bounds = core::lemma35_bounds(p);
        check(out, census.exact == (p.n() == 7),
              "row census ran in the wrong mode");
        check(out,
              census.log_q_ones >= bounds.lower_exponent &&
                  census.log_q_ones <= bounds.upper_exponent,
              "Lemma 3.5 census exponent outside [floor, cap]");
        out.census_evaluations = census.evaluations;
        break;
      }
      case Kind::kLemma34: {
        const core::SpanCensus census =
            census_call("core.lemma34_census",
                        [&] { return core::lemma34_census(p, 20000, rng); });
        check(out, census.tested > 0 && census.distinct == census.tested,
              "Lemma 3.4 census found equal spans (distinct != tested)");
        break;
      }
      case Kind::kLemma35:
        for (const auto& [c, e] : item.trials) {
          const auto completed = calls("core.lemma35_complete", [&] {
            return core::lemma35_complete(p, c, e);
          });
          check(out, completed.has_value(), "Lemma 3.5(a) completion failed");
          if (completed) {
            check(out,
                  det_mod_prime(core::build_m(p, *completed),
                                item.check_prime) == 0,
                  "Lemma 3.5(a) completion is not singular");
          }
        }
        break;
    }
    out.latency_s = calls.seconds();
    return out;
  }

 private:
  enum class Kind { kRowCensus, kLemma34, kLemma35 };
  struct Slot {
    Kind kind;
    std::size_t n;
  };
  struct Item {
    Kind kind;
    core::ConstructionParams params;
    std::uint64_t seed;
    la::IntMatrix c;  // row census: the row's C
    std::vector<std::pair<la::IntMatrix, la::IntMatrix>> trials;  // (C, E)
    std::uint64_t check_prime;
  };

  // One block: row census exact at n = 7, stratified (100k draws) at 9 and
  // 11; Lemma 3.4 census (20k instances) at 7 and 9; a batch of Lemma
  // 3.5(a) completions at 13; all with k = 2.  Doubling the n = 7 row
  // census and the n = 9 Lemma 3.4 census puts the median and p90 inside
  // those groups; the set-up warms up on the first (n = 7) row census.
  static constexpr Slot kMix[] = {
      {Kind::kRowCensus, 7}, {Kind::kRowCensus, 9}, {Kind::kLemma34, 9},
      {Kind::kLemma35, 13},  {Kind::kRowCensus, 11}, {Kind::kRowCensus, 7},
      {Kind::kLemma34, 7},   {Kind::kLemma34, 9}};
  static constexpr std::size_t kBlocks = 2;
  static constexpr std::size_t kTrials = 100;

  std::size_t threads_;
  std::vector<Item> items_;
  std::uint64_t label_seed_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "exact-singularity", "fingerprint-protocol", "rational-solvability",
      "lemma-census"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::size_t nproc) {
  if (name == "exact-singularity") return std::make_unique<ExactSingularity>();
  if (name == "fingerprint-protocol") {
    return std::make_unique<FingerprintWorkload>();
  }
  if (name == "rational-solvability") {
    return std::make_unique<RationalSolvability>();
  }
  if (name == "lemma-census") return std::make_unique<LemmaCensus>(nproc);
  return nullptr;
}

}  // namespace ccmxbench
