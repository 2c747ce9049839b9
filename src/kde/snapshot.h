/// \file snapshot.h
/// \brief Versioned binary model snapshots (warm restart / eviction).
///
/// A database keeps one KDE model per (table, column-set) and must carry
/// them across restarts — the role of `pg_kdemodels` in the original
/// GPU-KDE Postgres integration, where ANALYZE-built models are written
/// to a catalog relation and reloaded lazily. `SnapshotModel` serializes
/// a `KdeSelectivityEstimator` into a self-contained blob and
/// `RestoreModel` rebuilds it onto a (possibly different) device or
/// device group, with the guarantee that matters for an optimizer:
///
///   **a restored model is bitwise-faithful** — it returns the same
///   `Estimate`/`EstimateBatch` bits and makes the same Karma replacement
///   and bandwidth-update decisions the original would have made for any
///   subsequent query stream.
///
/// That guarantee holds because everything behavior-bearing is captured
/// exactly: the sample rows (stored as device floats; the double staging
/// in the blob is a lossless widening), their per-shard placement (a
/// rebalanced layout is reproduced verbatim, not re-apportioned), the
/// bandwidth and optional per-point scale bits, the RMSprop optimizer
/// trajectory, the cumulative Karma scores, replacement slots collected
/// but not yet applied, the reservoir counters, the periodic feedback
/// ring, and the full xoshiro256** RNG state (including the buffered
/// Gaussian spare). In-flight device passes are folded into host state by
/// `KdeSelectivityEstimator::Quiesce()` before serialization.
///
/// ## Two steps each way
///
/// Saving is a capture (`SaveModel`: model → `SavedModel`, host values)
/// followed by an encode (`EncodeModel`: `SavedModel` → blob); restoring is
/// a decode (`DecodeModel`: blob → `SavedModel`, checked once) followed by
/// a rebuild (`RebuildModel`: `SavedModel` → model). `SnapshotModel` and
/// `RestoreModel` run both steps. The catalog parks an evicted model as its
/// `SavedModel` and rebuilds from it on a fault, so the codec runs only
/// when a model crosses the process boundary. A rebuild installs the saved
/// state once: the engine starts at the saved bandwidth (no Scott pass)
/// and Karma at the saved scores, so its device cost is the sample, the
/// bandwidth, the optional point scales and the Karma scores, with no
/// kernel launch.
///
/// ## Format
///
/// Little-endian, fixed-width fields; doubles are stored as their raw
/// IEEE-754 bits (bitwise round-trip by construction). The layout is
///
///   magic u32 ("FKDM") | version u32 | mode u32 | dims u32 |
///   capacity u64 | rows u64 | shards u32 | config block | rng block |
///   sample rows (rows*dims f64, global-slot order) | shard layout |
///   shard rate EWMAs | bandwidth | scales? | adaptive state? |
///   karma scores? | pending replacement slots | reservoir counters? |
///   periodic ring | counters | batch report | checksum u64
///
/// Arrays are a u64 element count followed by the elements. One field
/// list in snapshot.cc drives both the writer and the reader, and whole
/// arrays move with one copy on little-endian hosts.
///
/// `kModelSnapshotVersion` (2) pins the layout. The v2 checksum is a
/// word-wise hash: four lanes over little-endian 8-byte words, folded,
/// then the byte tail and the length. v1 blobs have the same fields
/// under a byte-serial FNV-1a-64 checksum; readers verify a blob with its
/// own version's checksum, so v1 blobs still restore. Readers reject
/// other versions, corrupt blobs (checksum mismatch) and counts the blob
/// cannot hold, rather than guess.

#ifndef FKDE_KDE_SNAPSHOT_H_
#define FKDE_KDE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "kde/kde_estimator.h"
#include "parallel/device.h"
#include "parallel/device_group.h"

namespace fkde {

/// First bytes of every snapshot blob: "FKDM" in file order.
inline constexpr std::uint32_t kModelSnapshotMagic = 0x4D444B46U;

/// Current layout version; bumped on any incompatible format change.
inline constexpr std::uint32_t kModelSnapshotVersion = 2;

/// Oldest version readers accept: v1, the v2 fields under a byte-serial
/// FNV-1a-64 checksum.
inline constexpr std::uint32_t kModelSnapshotMinVersion = 1;

/// \brief Parsed fixed-size snapshot prefix (catalog admission checks and
/// diagnostics — cheap to read without touching the payload).
struct ModelSnapshotHeader {
  std::uint32_t version = 0;
  KdeSelectivityEstimator::Mode mode =
      KdeSelectivityEstimator::Mode::kHeuristic;
  std::uint32_t dims = 0;
  std::uint64_t capacity = 0;  ///< Sample capacity, rows.
  std::uint64_t rows = 0;      ///< Live sample rows.
  std::uint32_t shards = 0;    ///< Shard count the layout was saved for.
};

/// Parses and validates the header of `bytes` (magic + version checked;
/// the payload checksum is NOT verified here — DecodeModel does that).
Result<ModelSnapshotHeader> ReadModelSnapshotHeader(
    std::span<const std::uint8_t> bytes);

/// Everything a blob holds after its header, as host values (snapshot.cc).
struct ModelBody;

/// \brief A model's saved state as host values: exactly what a blob
/// encodes, decoded. Only `SaveModel` and `DecodeModel` make one, so every
/// SavedModel holds a complete, checked state that `RebuildModel` installs
/// as it is. It holds about what its blob holds (the sample as doubles).
class SavedModel {
 public:
  SavedModel(SavedModel&&) noexcept;
  SavedModel& operator=(SavedModel&&) noexcept;
  ~SavedModel();

  const ModelSnapshotHeader& header() const { return header_; }

 private:
  friend class ModelSnapshotAccess;
  SavedModel();

  ModelSnapshotHeader header_;
  std::unique_ptr<ModelBody> body_;
};

/// Captures `model`'s state. Quiesces the model first (collects in-flight
/// gradient/Karma passes into host state), which never changes the
/// model's subsequent estimates or decisions — the original may keep
/// serving after being saved.
Result<SavedModel> SaveModel(KdeSelectivityEstimator* model);

/// Encodes a saved state into a versioned blob (the current version).
std::vector<std::uint8_t> EncodeModel(const SavedModel& saved);

/// Decodes a blob of any readable version: verifies its checksum, parses
/// it and checks every field that does not depend on the restore target
/// (row and array counts, shard slot counts, bandwidth and point scales
/// positive and finite, Karma and ring arity, pending slots in range).
/// InvalidArgument for anything else.
Result<SavedModel> DecodeModel(std::span<const std::uint8_t> bytes);

/// Rebuilds a saved model onto `device` (single-shard states only).
/// `table` is the model's base table — the adaptive variant draws Karma
/// replacement rows from it — and must have the state's dims and at least
/// its sample capacity in rows. `saved` is left as it was.
Result<std::unique_ptr<KdeSelectivityEstimator>> RebuildModel(
    const SavedModel& saved, Device* device, const Table* table);

/// Rebuilds a saved model sharded across `group`; the group's device
/// count must equal the state's shard count (a saved layout is reproduced
/// verbatim, never re-apportioned).
Result<std::unique_ptr<KdeSelectivityEstimator>> RebuildModel(
    const SavedModel& saved, DeviceGroup* group, const Table* table);

/// Serializes `model` into a versioned blob: `EncodeModel(SaveModel())`.
Result<std::vector<std::uint8_t>> SnapshotModel(
    KdeSelectivityEstimator* model);

/// `RebuildModel(DecodeModel(bytes), device, table)`.
Result<std::unique_ptr<KdeSelectivityEstimator>> RestoreModel(
    std::span<const std::uint8_t> bytes, Device* device, const Table* table);

/// `RebuildModel(DecodeModel(bytes), group, table)`.
Result<std::unique_ptr<KdeSelectivityEstimator>> RestoreModel(
    std::span<const std::uint8_t> bytes, DeviceGroup* group,
    const Table* table);

}  // namespace fkde

#endif  // FKDE_KDE_SNAPSHOT_H_
