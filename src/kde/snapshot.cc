#include "kde/snapshot.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace fkde {
namespace {

// ---------------------------------------------------------------------------
// Little-endian words.

template <class Wire>
Wire LoadLe(const std::uint8_t* p) {
  Wire w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof(Wire));
  } else {
    for (std::size_t b = 0; b < sizeof(Wire); ++b) {
      w = static_cast<Wire>(w | (Wire(p[b]) << (8 * b)));
    }
  }
  return w;
}

template <class Wire>
void StoreLe(Wire w, std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &w, sizeof(Wire));
  } else {
    for (std::size_t b = 0; b < sizeof(Wire); ++b) {
      p[b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
}

/// Whether an array of T already holds its Wire words in file order, so a
/// whole array moves with one memcpy.
template <class Wire, class T>
constexpr bool kRawCopy = std::endian::native == std::endian::little &&
                          std::is_arithmetic_v<T> &&
                          !std::is_same_v<T, bool> &&
                          sizeof(T) == sizeof(Wire);

template <class Wire, class T>
Wire ToWire(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<Wire>(v);
  } else {
    return static_cast<Wire>(v);
  }
}

template <class T, class Wire>
T FromWire(Wire w) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<T>(w);
  } else {
    return static_cast<T>(w);
  }
}

// ---------------------------------------------------------------------------
// Trailers.

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// Byte-serial FNV-1a 64 — the v1 trailer, kept so v1 blobs still verify.
std::uint64_t Fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

/// The v2 trailer. Four independent lanes each take every fourth
/// little-endian 8-byte word in an FNV-1a-style step (xor, multiply by an
/// odd constant, rotate so high bits reach the next multiply's low end);
/// the lanes fold with odd multipliers, then the words and bytes of the
/// tail, then the length. Every step is a bijection of the running state,
/// so any change confined to one word always changes the result.
std::uint64_t WordChecksum64(const std::uint8_t* data, std::size_t n) {
  constexpr std::uint64_t kMulA = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kMulB = 0xC2B2AE3D27D4EB4FULL;
  const auto step = [](std::uint64_t h, std::uint64_t word,
                       std::uint64_t mul) {
    return std::rotl((h ^ word) * mul, 31);
  };
  std::uint64_t lane[4] = {kFnvBasis, kFnvBasis ^ 1, kFnvBasis ^ 2,
                           kFnvBasis ^ 3};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (std::size_t k = 0; k < 4; ++k) {
      lane[k] = step(lane[k], LoadLe<std::uint64_t>(data + i + 8 * k), kMulA);
    }
  }
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t l : lane) h = step(h, l, kMulB);
  for (; i + 8 <= n; i += 8) {
    h = step(h, LoadLe<std::uint64_t>(data + i), kMulA);
  }
  for (; i < n; ++i) h = (h ^ data[i]) * kFnvPrime;
  h = step(h, n, kMulB);
  h ^= h >> 32;
  return h;
}

/// Whether the trailer of `bytes` (at least 8 long) matches its body under
/// the blob's own version: v1 carries byte-serial FNV-1a-64, later
/// versions the word checksum.
bool TrailerMatches(std::span<const std::uint8_t> bytes) {
  const std::size_t body = bytes.size() - 8;
  const bool v1 = body >= 8 && LoadLe<std::uint32_t>(bytes.data() + 4) ==
                                   kModelSnapshotMinVersion;
  const std::uint64_t expected = v1 ? Fnv1a64(bytes.data(), body)
                                    : WordChecksum64(bytes.data(), body);
  return LoadLe<std::uint64_t>(bytes.data() + body) == expected;
}

// ---------------------------------------------------------------------------
// Archives. One field walk (HeaderFields/BodyFields below) drives all
// three: SizeCounter measures the blob, Writer fills it, Reader parses
// it — so save and restore cannot disagree on order.

/// The field vocabulary of the walks, over two primitives each archive
/// supplies: `Words<Wire>(v, n)` moves n values as Wire-width words, and
/// `Count(vec, wire_bytes)` moves a vector's u64 element count (sizing the
/// vector when reading).
template <class Derived>
class Archive {
 public:
  void Bool(bool& v) { self().template Words<std::uint8_t>(&v, 1); }
  template <class T>
  void U32(T& v) {
    self().template Words<std::uint32_t>(&v, 1);
  }
  template <class T>
  void U64(T& v) {
    self().template Words<std::uint64_t>(&v, 1);
  }
  void F64(double& v) { U64(v); }
  void Doubles(std::vector<double>& v) { Array<std::uint64_t>(v); }
  void Sizes(std::vector<std::size_t>& v) { Array<std::uint64_t>(v); }
  void U32s(std::vector<std::uint32_t>& v) { Array<std::uint32_t>(v); }

 private:
  template <class Wire, class T>
  void Array(std::vector<T>& v) {
    self().Count(v, sizeof(Wire));
    self().template Words<Wire>(v.data(), v.size());
  }
  Derived& self() { return static_cast<Derived&>(*this); }
};

class SizeCounter : public Archive<SizeCounter> {
 public:
  template <class Wire, class T>
  void Words(T*, std::size_t n) {
    bytes_ += n * sizeof(Wire);
  }
  template <class T>
  void Count(std::vector<T>&, std::size_t) {
    bytes_ += sizeof(std::uint64_t);
  }
  std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

/// Fills a blob allocated once at its final size.
class Writer : public Archive<Writer> {
 public:
  explicit Writer(std::size_t body_bytes)
      : out_(body_bytes + sizeof(std::uint64_t)) {}

  template <class Wire, class T>
  void Words(const T* v, std::size_t n) {
    std::uint8_t* dst = out_.data() + pos_;
    if constexpr (kRawCopy<Wire, T>) {
      if (n > 0) std::memcpy(dst, v, n * sizeof(Wire));
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        StoreLe(ToWire<Wire>(v[i]), dst + i * sizeof(Wire));
      }
    }
    pos_ += n * sizeof(Wire);
  }
  template <class T>
  void Count(const std::vector<T>& v, std::size_t) {
    const std::uint64_t n = v.size();
    Words<std::uint64_t>(&n, 1);
  }

  /// Appends the checksum of everything written and releases the blob.
  std::vector<std::uint8_t> Finish() {
    FKDE_CHECK(pos_ + sizeof(std::uint64_t) == out_.size());
    StoreLe(WordChecksum64(out_.data(), pos_), out_.data() + pos_);
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// Parses a blob body. Every accessor fails soft by latching `ok()` false
/// (leaving its target untouched), so the walk runs through and the caller
/// checks once.
class Reader : public Archive<Reader> {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <class Wire, class T>
  void Words(T* v, std::size_t n) {
    if (!Fits(n, sizeof(Wire))) return;
    const std::uint8_t* src = bytes_.data() + pos_;
    if constexpr (kRawCopy<Wire, T>) {
      if (n > 0) std::memcpy(v, src, n * sizeof(Wire));
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = FromWire<T>(LoadLe<Wire>(src + i * sizeof(Wire)));
      }
    }
    pos_ += n * sizeof(Wire);
  }
  /// Sizes `v` to a stored count of elements of at least `wire_bytes`
  /// each, refusing counts the remaining bytes cannot hold.
  template <class T>
  void Count(std::vector<T>& v, std::size_t wire_bytes) {
    std::uint64_t n = 0;
    Words<std::uint64_t>(&n, 1);
    if (!Fits(n, wire_bytes)) return;
    v.resize(static_cast<std::size_t>(n));
  }

  bool ok() const { return ok_; }
  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  /// Whether n values of `width` bytes remain. Divides rather than
  /// multiplies, so a hostile n cannot overflow the comparison.
  bool Fits(std::uint64_t n, std::size_t width) {
    if (!ok_ || n > (bytes_.size() - pos_) / width) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// The field list.

template <class Ar>
void HeaderFields(Ar& ar, std::uint32_t& magic, ModelSnapshotHeader& h) {
  ar.U32(magic);
  ar.U32(h.version);
  ar.U32(h.mode);
  ar.U32(h.dims);
  ar.U64(h.capacity);
  ar.U64(h.rows);
  ar.U32(h.shards);
}

template <class Ar>
void ConfigFields(Ar& ar, KdeConfig& c) {
  ar.U64(c.sample_size);
  ar.U32(c.kernel);
  ar.U32(c.loss);
  ar.F64(c.lambda);
  ar.U64(c.seed);
  // Adaptive (Listing 1) knobs.
  ar.U64(c.adaptive.mini_batch);
  ar.F64(c.adaptive.alpha);
  ar.F64(c.adaptive.lr_min);
  ar.F64(c.adaptive.lr_max);
  ar.F64(c.adaptive.lr_increase);
  ar.F64(c.adaptive.lr_decrease);
  ar.F64(c.adaptive.lr_initial);
  ar.Bool(c.adaptive.log_updates);
  // Karma knobs.
  ar.F64(c.karma.k_max);
  ar.F64(c.karma.threshold);
  ar.U32(c.karma.loss);
  ar.F64(c.karma.lambda);
  ar.Bool(c.karma.empty_region_shortcut);
  // Batch-optimizer knobs (the periodic variant re-optimizes with them
  // after restore, so they are state, not just construction input).
  ar.U32(c.batch.loss);
  ar.F64(c.batch.lambda);
  ar.Bool(c.batch.log_space);
  ar.F64(c.batch.min_factor);
  ar.F64(c.batch.max_factor);
  ar.U64(c.batch.local.max_iterations);
  ar.U64(c.batch.local.history);
  ar.F64(c.batch.local.gradient_tolerance);
  ar.F64(c.batch.local.f_tolerance);
  ar.U64(c.batch.local.max_line_search_steps);
  ar.U64(c.batch.global.num_samples);
  ar.U64(c.batch.global.num_rounds);
  ar.U64(c.batch.global.starts_per_round);
  ar.F64(c.batch.global.link_radius_fraction);
  // SCV knobs (construction-time only; kept for config fidelity).
  ar.F64(c.scv.min_factor);
  ar.F64(c.scv.max_factor);
  ar.U64(c.scv.max_iterations);
  ar.U64(c.scv.restarts);
  ar.U64(c.scv.max_rows);
  ar.U64(c.scv.seed);
  ar.Bool(c.enable_karma);
  ar.Bool(c.enable_reservoir);
  ar.U64(c.feedback_window);
  ar.U64(c.reoptimize_every);
}

/// The smallest stored ring entry: two empty bound arrays and a double.
constexpr std::size_t kRingEntryMinBytes = 3 * sizeof(std::uint64_t);

}  // namespace

/// Everything after the header, in blob order. Snapshot fills it from the
/// model, Decode from a blob; Restore installs it.
struct ModelBody {
  /// One periodic-ring entry as stored: the bounds before Box takes them.
  struct RingEntry {
    std::vector<double> lower;
    std::vector<double> upper;
    double selectivity = 0.0;
  };

  KdeConfig config;
  RngState rng;
  std::vector<double> rows;  ///< rows*dims, global-slot order.
  /// One array per header shard; the list itself has no count.
  std::vector<std::vector<std::uint32_t>> shard_slots;
  std::vector<double> shard_rates;
  std::size_t observed_passes = 0;
  std::vector<double> bandwidth;
  bool has_scales = false;
  std::vector<double> scales;
  bool has_adaptive = false;
  AdaptiveBandwidthState adaptive;
  bool has_karma = false;
  std::vector<double> karma;
  std::vector<std::size_t> pending_karma_slots;
  bool has_reservoir = false;
  std::size_t accepted = 0;
  std::size_t observed = 0;
  std::vector<RingEntry> ring;
  std::size_t ring_next = 0;
  std::size_t since_optimize = 0;
  std::size_t reoptimizations = 0;
  std::size_t karma_replacements = 0;
  BatchReport report;
};

namespace {

template <class Ar>
void BodyFields(Ar& ar, ModelBody& b) {
  ConfigFields(ar, b.config);
  for (std::uint64_t& s : b.rng.state) ar.U64(s);
  ar.Bool(b.rng.has_spare);
  ar.F64(b.rng.spare);

  // Sample payload in global-slot order. The device stores floats; the
  // widening to double on save and the narrowing on restore are exact.
  ar.Doubles(b.rows);
  // Per-shard placement, so a rebalanced layout restores verbatim.
  for (std::vector<std::uint32_t>& slots : b.shard_slots) ar.U32s(slots);
  ar.Doubles(b.shard_rates);
  ar.U64(b.observed_passes);

  ar.Doubles(b.bandwidth);
  ar.Bool(b.has_scales);
  if (b.has_scales) ar.Doubles(b.scales);

  ar.Bool(b.has_adaptive);
  if (b.has_adaptive) {
    AdaptiveBandwidthState& st = b.adaptive;
    ar.Doubles(st.grad_accum);
    ar.U64(st.batch_count);
    ar.Doubles(st.magnitude_avg);
    ar.Doubles(st.rates);
    ar.Doubles(st.prev_grad);
    ar.Bool(st.has_prev_grad);
    ar.U64(st.updates_applied);
  }

  ar.Bool(b.has_karma);
  if (b.has_karma) ar.Doubles(b.karma);
  ar.Sizes(b.pending_karma_slots);

  ar.Bool(b.has_reservoir);
  if (b.has_reservoir) {
    ar.U64(b.accepted);
    ar.U64(b.observed);
  }

  ar.Count(b.ring, kRingEntryMinBytes);
  for (ModelBody::RingEntry& e : b.ring) {
    ar.Doubles(e.lower);
    ar.Doubles(e.upper);
    ar.F64(e.selectivity);
  }
  ar.U64(b.ring_next);
  ar.U64(b.since_optimize);
  ar.U64(b.reoptimizations);
  ar.U64(b.karma_replacements);

  ar.F64(b.report.initial_error);
  ar.F64(b.report.final_error);
  ar.U64(b.report.evaluations);
  ar.Bool(b.report.converged);
}

/// Reads and validates the header at the front of `r`.
Result<ModelSnapshotHeader> ParseHeader(Reader* r) {
  std::uint32_t magic = 0;
  ModelSnapshotHeader header;
  HeaderFields(*r, magic, header);
  if (!r->ok()) {
    return Status::InvalidArgument("snapshot header truncated");
  }
  if (magic != kModelSnapshotMagic) {
    return Status::InvalidArgument("not a model snapshot (bad magic)");
  }
  if (header.version < kModelSnapshotMinVersion ||
      header.version > kModelSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(header.version) +
        " (expected " + std::to_string(kModelSnapshotMinVersion) + " to " +
        std::to_string(kModelSnapshotVersion) + ")");
  }
  if (static_cast<std::uint32_t>(header.mode) >
      static_cast<std::uint32_t>(KdeSelectivityEstimator::Mode::kAdaptive)) {
    return Status::InvalidArgument("snapshot mode out of range");
  }
  if (header.dims == 0 || header.shards == 0) {
    return Status::InvalidArgument("snapshot header fields out of range");
  }
  if (header.dims > kb::kMaxDims) {
    return Status::InvalidArgument("snapshot dims beyond the engine limit");
  }
  return header;
}

/// Whether every entry is positive and finite — what the engine requires
/// of a bandwidth and of point scales.
bool AllPositiveFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(), [](double v) {
    return v > 0.0 && std::isfinite(v);
  });
}

/// Whether `v` names an enumerator of E, whose last is `last`.
template <class E>
bool InRange(E v, E last) {
  return static_cast<std::uint32_t>(v) <= static_cast<std::uint32_t>(last);
}

/// Checks the saved configuration: the enums name real kernels and
/// losses, and the options of every component the body installs pass
/// that component's own checks (KarmaMaintainer, AdaptiveBandwidth), so
/// a rebuild never reaches them with options they abort on.
Status CheckConfig(const ModelBody& b) {
  const KdeConfig& c = b.config;
  if (!InRange(c.kernel, KernelType::kEpanechnikov) ||
      !InRange(c.loss, LossType::kSquaredQ) ||
      !InRange(c.karma.loss, LossType::kSquaredQ) ||
      !InRange(c.batch.loss, LossType::kSquaredQ)) {
    return Status::InvalidArgument("snapshot kernel or loss out of range");
  }
  if (b.has_karma &&
      !(c.karma.k_max > 0.0 && c.karma.threshold < c.karma.k_max)) {
    return Status::InvalidArgument(
        "snapshot karma options need 0 < k_max and threshold < k_max");
  }
  const AdaptiveOptions& a = c.adaptive;
  if (b.has_adaptive &&
      !(a.mini_batch > 0 && a.alpha > 0.0 && a.alpha < 1.0 &&
        a.lr_min > 0.0 && a.lr_min <= a.lr_max)) {
    return Status::InvalidArgument(
        "snapshot adaptive options out of range (mini_batch > 0, "
        "0 < alpha < 1, 0 < lr_min <= lr_max)");
  }
  return Status::OK();
}

/// Checks a parsed body against its header: every count and value that
/// does not depend on the restore target, so a rebuild can install the
/// state without re-checking it (and never reaches an engine check).
Status CheckBody(const ModelSnapshotHeader& header, const ModelBody& b) {
  FKDE_RETURN_NOT_OK(CheckConfig(b));
  if (header.rows == 0 || header.rows > header.capacity) {
    return Status::InvalidArgument("snapshot row counts are inconsistent");
  }
  // Divides rather than multiplies, so a hostile row count cannot wrap.
  if (b.rows.size() % header.dims != 0 ||
      b.rows.size() / header.dims != header.rows) {
    return Status::InvalidArgument("snapshot sample payload truncated");
  }
  for (const std::vector<std::uint32_t>& slots : b.shard_slots) {
    if (slots.size() > header.rows) {
      return Status::InvalidArgument("snapshot shard layout truncated");
    }
  }
  if (b.bandwidth.size() != header.dims) {
    return Status::InvalidArgument("snapshot bandwidth arity mismatch");
  }
  if (!AllPositiveFinite(b.bandwidth)) {
    return Status::InvalidArgument(
        "snapshot bandwidth entries must be positive and finite");
  }
  if (b.has_scales && (b.scales.size() != header.rows ||
                       !AllPositiveFinite(b.scales))) {
    return Status::InvalidArgument(
        "snapshot point scales must be positive and finite, one per row");
  }
  if (b.has_karma && b.karma.size() != header.rows) {
    return Status::InvalidArgument("snapshot karma arity mismatch");
  }
  for (std::size_t slot : b.pending_karma_slots) {
    if (slot >= header.rows) {
      return Status::InvalidArgument("snapshot pending slot out of range");
    }
  }
  for (const ModelBody::RingEntry& e : b.ring) {
    if (e.lower.size() != header.dims || e.upper.size() != header.dims) {
      return Status::InvalidArgument("snapshot ring box dims mismatch");
    }
    for (std::size_t j = 0; j < header.dims; ++j) {
      if (!(e.lower[j] <= e.upper[j])) {
        return Status::InvalidArgument("snapshot ring box bounds inverted");
      }
    }
  }
  return Status::OK();
}

}  // namespace

SavedModel::SavedModel() = default;
SavedModel::SavedModel(SavedModel&&) noexcept = default;
SavedModel& SavedModel::operator=(SavedModel&&) noexcept = default;
SavedModel::~SavedModel() = default;

/// Friend of KdeSelectivityEstimator and SavedModel: captures the private
/// model state, moves it through the codec, and rebuilds estimators
/// outside the Create path.
class ModelSnapshotAccess {
 public:
  /// Capture: model → SavedModel.
  static SavedModel Snapshot(KdeSelectivityEstimator* m) {
    // Fold in-flight device passes into host state; behavior-neutral (see
    // Quiesce's contract), so the original may keep serving afterwards.
    m->Quiesce();

    DeviceSample* sample = m->sample_.get();
    KdeEngine* engine = m->engine_.get();
    SavedModel saved;
    ModelSnapshotHeader& header = saved.header_;
    header.version = kModelSnapshotVersion;
    header.mode = m->mode_;
    header.dims = static_cast<std::uint32_t>(sample->dims());
    header.capacity = sample->capacity();
    header.rows = sample->size();
    header.shards = static_cast<std::uint32_t>(sample->num_shards());

    saved.body_ = std::make_unique<ModelBody>();
    ModelBody& b = *saved.body_;
    b.config = m->config_;
    b.rng = m->rng_.SaveState();
    b.rows = sample->GatherRows();
    b.shard_slots = sample->ShardSlots();
    b.shard_rates = sample->shard_rates();
    b.observed_passes = sample->observed_passes();
    b.bandwidth = engine->bandwidth();
    b.has_scales = engine->has_point_scales();
    if (b.has_scales) b.scales = engine->point_scales_host();
    b.has_adaptive = m->adaptive_.has_value();
    if (b.has_adaptive) b.adaptive = m->adaptive_->SaveState();
    b.has_karma = m->karma_.has_value();
    if (b.has_karma) b.karma = m->karma_->ReadKarma();
    b.pending_karma_slots = m->pending_karma_slots_;
    b.has_reservoir = m->reservoir_.has_value();
    if (b.has_reservoir) {
      b.accepted = m->reservoir_->accepted();
      b.observed = m->reservoir_->observed();
    }
    b.ring.reserve(m->feedback_ring_.size());
    for (const Query& q : m->feedback_ring_) {
      b.ring.push_back(
          {q.box.lower_bounds(), q.box.upper_bounds(), q.selectivity});
    }
    b.ring_next = m->ring_next_;
    b.since_optimize = m->feedback_since_optimize_;
    b.reoptimizations = m->reoptimizations_;
    b.karma_replacements = m->karma_replacements_;
    b.report = m->batch_report_;
    return saved;
  }

  /// Encode: SavedModel → blob, always in the current version.
  static std::vector<std::uint8_t> Encode(const SavedModel& saved) {
    std::uint32_t magic = kModelSnapshotMagic;
    ModelSnapshotHeader header = saved.header_;
    header.version = kModelSnapshotVersion;
    // The walk takes its fields by reference because the Reader fills
    // them; SizeCounter and Writer only read.
    ModelBody& b = *saved.body_;
    SizeCounter size;
    HeaderFields(size, magic, header);
    BodyFields(size, b);
    Writer w(size.bytes());
    HeaderFields(w, magic, header);
    BodyFields(w, b);
    return w.Finish();
  }

  /// Decode: blob → SavedModel, verified and checked (CheckBody).
  static Result<SavedModel> Decode(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < sizeof(std::uint64_t)) {
      return Status::InvalidArgument("snapshot blob truncated");
    }
    // Verify integrity before trusting any field.
    if (!TrailerMatches(bytes)) {
      return Status::InvalidArgument("snapshot checksum mismatch");
    }
    Reader r(bytes.first(bytes.size() - sizeof(std::uint64_t)));
    SavedModel saved;
    FKDE_ASSIGN_OR_RETURN(saved.header_, ParseHeader(&r));
    // Each shard stores at least its slot count; bound the shard list by
    // the blob before sizing it.
    if (saved.header_.shards > bytes.size() / sizeof(std::uint64_t)) {
      return Status::InvalidArgument("snapshot shard count exceeds the blob");
    }
    saved.body_ = std::make_unique<ModelBody>();
    ModelBody& b = *saved.body_;
    b.shard_slots.resize(saved.header_.shards);
    BodyFields(r, b);
    if (!r.ok()) {
      return Status::InvalidArgument("snapshot blob truncated");
    }
    if (!r.at_end()) {
      return Status::InvalidArgument("snapshot blob has trailing bytes");
    }
    FKDE_RETURN_NOT_OK(CheckBody(saved.header_, b));
    return saved;
  }

  /// Rebuild: SavedModel → model on `device` or `group`. The state was
  /// checked when it was made; only its fit to the target is checked here.
  static Result<std::unique_ptr<KdeSelectivityEstimator>> Restore(
      const SavedModel& saved, Device* device, DeviceGroup* group,
      const Table* table) {
    if (table == nullptr) {
      return Status::InvalidArgument("restore requires the base table");
    }
    if ((device == nullptr) == (group == nullptr)) {
      return Status::InvalidArgument(
          "restore requires exactly one of device or group");
    }
    const ModelSnapshotHeader& header = saved.header_;
    const ModelBody& b = *saved.body_;
    if (table->num_cols() != header.dims) {
      return Status::InvalidArgument("table dims do not match the snapshot");
    }
    const std::size_t shards = group != nullptr ? group->size() : 1;
    if (shards != header.shards) {
      return Status::FailedPrecondition(
          "snapshot shard layout does not match the target topology");
    }
    // A sample never holds more rows than its base table (Create sizes it
    // to min(sample_size, rows)); this also bounds the device allocation.
    if (header.capacity > table->num_rows()) {
      return Status::InvalidArgument(
          "snapshot sample capacity exceeds the table");
    }

    // Rebuild. The Create path's mode-specific construction (SCV/batch
    // optimization, Scott tuning) must NOT re-run: the saved state IS the
    // post-construction, post-adaptation model, and each piece of it is
    // installed once.
    const KdeConfig& config = b.config;
    std::unique_ptr<KdeSelectivityEstimator> est(
        new KdeSelectivityEstimator(header.mode, table, config));
    est->sample_ = group != nullptr
                       ? std::make_unique<DeviceSample>(
                             group, static_cast<std::size_t>(header.capacity),
                             header.dims)
                       : std::make_unique<DeviceSample>(
                             device, static_cast<std::size_t>(header.capacity),
                             header.dims);
    FKDE_RETURN_NOT_OK(est->sample_->LoadShardLayout(
        b.rows, static_cast<std::size_t>(header.rows), b.shard_slots));
    FKDE_RETURN_NOT_OK(
        est->sample_->RestoreRates(b.shard_rates, b.observed_passes));
    est->engine_ = std::make_unique<KdeEngine>(est->sample_.get(),
                                               config.kernel, b.bandwidth);
    if (b.has_scales) {
      FKDE_RETURN_NOT_OK(est->engine_->SetPointScales(b.scales));
    }
    est->rng_.RestoreState(b.rng);
    if (b.has_adaptive) {
      est->adaptive_.emplace(header.dims, config.adaptive);
      FKDE_RETURN_NOT_OK(est->adaptive_->RestoreState(b.adaptive));
    }
    if (b.has_karma) {
      est->karma_.emplace(est->engine_.get(), config.karma, b.karma);
    }
    est->pending_karma_slots_ = b.pending_karma_slots;
    if (b.has_reservoir) {
      est->reservoir_.emplace(est->sample_.get(), &est->rng_);
      est->reservoir_->RestoreCounters(b.accepted, b.observed);
    }
    est->feedback_ring_.reserve(b.ring.size());
    for (const ModelBody::RingEntry& e : b.ring) {
      est->feedback_ring_.push_back({Box(e.lower, e.upper), e.selectivity});
    }
    est->ring_next_ = b.ring_next;
    est->feedback_since_optimize_ = b.since_optimize;
    est->reoptimizations_ = b.reoptimizations;
    est->karma_replacements_ = b.karma_replacements;
    est->batch_report_ = b.report;
    return est;
  }
};

Result<ModelSnapshotHeader> ReadModelSnapshotHeader(
    std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  return ParseHeader(&r);
}

Result<SavedModel> SaveModel(KdeSelectivityEstimator* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must be non-null");
  }
  return ModelSnapshotAccess::Snapshot(model);
}

std::vector<std::uint8_t> EncodeModel(const SavedModel& saved) {
  return ModelSnapshotAccess::Encode(saved);
}

Result<SavedModel> DecodeModel(std::span<const std::uint8_t> bytes) {
  return ModelSnapshotAccess::Decode(bytes);
}

Result<std::unique_ptr<KdeSelectivityEstimator>> RebuildModel(
    const SavedModel& saved, Device* device, const Table* table) {
  if (device == nullptr) {
    return Status::InvalidArgument("device must be non-null");
  }
  return ModelSnapshotAccess::Restore(saved, device, nullptr, table);
}

Result<std::unique_ptr<KdeSelectivityEstimator>> RebuildModel(
    const SavedModel& saved, DeviceGroup* group, const Table* table) {
  if (group == nullptr) {
    return Status::InvalidArgument("group must be non-null");
  }
  return ModelSnapshotAccess::Restore(saved, nullptr, group, table);
}

Result<std::vector<std::uint8_t>> SnapshotModel(
    KdeSelectivityEstimator* model) {
  FKDE_ASSIGN_OR_RETURN(const SavedModel saved, SaveModel(model));
  return EncodeModel(saved);
}

Result<std::unique_ptr<KdeSelectivityEstimator>> RestoreModel(
    std::span<const std::uint8_t> bytes, Device* device, const Table* table) {
  FKDE_ASSIGN_OR_RETURN(const SavedModel saved, DecodeModel(bytes));
  return RebuildModel(saved, device, table);
}

Result<std::unique_ptr<KdeSelectivityEstimator>> RestoreModel(
    std::span<const std::uint8_t> bytes, DeviceGroup* group,
    const Table* table) {
  FKDE_ASSIGN_OR_RETURN(const SavedModel saved, DecodeModel(bytes));
  return RebuildModel(saved, group, table);
}

}  // namespace fkde
