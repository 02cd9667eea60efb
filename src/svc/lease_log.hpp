// Lease log for the campaign dispatcher, resumable after a killed process.
//
// The dispatcher splits a campaign into run-range leases and must survive
// both worker crashes and its own (a killed process, e.g. SIGKILL; like
// the journal, the log is flushed but never fsync'd, so an OS crash or
// power loss is outside its guarantee): every lease grant, completion and
// requeue is appended to a CRC-framed log *before* the corresponding wire
// message is acted upon, so a restarted dispatcher (or a post-mortem
// `campaign top`) can reconstruct exactly which ranges were in flight.
//
// The format deliberately mirrors the campaign journal (store/journal.hpp):
//
//   offset 0: magic "PROPLEAS" (8 bytes) | u32 version
//   then frames: u32 payload_length | u32 crc32(payload) | payload
//   payload:    u8 LeaseRecordType | type-specific body
//
// and so do the reader semantics: a truncated tail frame is crash residue
// (skipped, warning), a CRC mismatch on a complete frame is corruption
// (hard error). Log files are named lease-NNNNNN.pll inside the campaign's
// journal directory -- a new file per serve session, never appended across
// sessions -- and never collide with journal shards (shard-*.pjl).
//
// Correctness note: the lease log is bookkeeping, not ground truth. The
// journal's record set alone decides which runs are complete; losing every
// lease log costs an audit trail and some duplicate re-execution after a
// dispatcher restart, never a wrong estimate.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace propane::svc {

inline constexpr char kLeaseLogMagic[8] = {'P', 'R', 'O', 'P',
                                           'L', 'E', 'A', 'S'};
inline constexpr std::uint32_t kLeaseLogVersion = 1;
/// Upper bound on one frame's payload; anything larger is corruption.
inline constexpr std::uint32_t kMaxLeaseFrameBytes = 1u << 16;

enum class LeaseRecordType : std::uint8_t {
  kCampaign = 1,  // identifies the plan this log's leases belong to
  kGrant = 2,
  kComplete = 3,
  kRequeue = 4,
};

/// First frame of every log: which campaign the leases slice up.
struct LeaseCampaignInfo {
  std::uint64_t plan_hash = 0;
  std::uint64_t seed = 0;
  std::uint64_t total_runs = 0;
  std::uint64_t lease_runs = 0;  // nominal runs per lease
  bool operator==(const LeaseCampaignInfo&) const = default;
};

struct LeaseGrant {
  std::uint64_t lease_id = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint32_t worker_id = 0;
  bool rescan = false;
  bool operator==(const LeaseGrant&) const = default;
};

struct LeaseComplete {
  std::uint64_t lease_id = 0;
  std::uint64_t executed = 0;
  std::uint64_t diverged = 0;
  bool operator==(const LeaseComplete&) const = default;
};

/// Appends one serve session's lease events. The constructor writes the
/// header and campaign frame immediately; every append is flushed, so a
/// crash tears at most the frame being written.
class LeaseLogWriter {
 public:
  /// `path` must not already exist (one log per serve session).
  LeaseLogWriter(const std::filesystem::path& path,
                 const LeaseCampaignInfo& campaign);

  LeaseLogWriter(const LeaseLogWriter&) = delete;
  LeaseLogWriter& operator=(const LeaseLogWriter&) = delete;

  void grant(const LeaseGrant& grant);
  void complete(const LeaseComplete& complete);
  void requeue(std::uint64_t lease_id);

  const std::filesystem::path& path() const { return path_; }

  /// Next free lease log path in `dir` (lease-NNNNNN.pll, numbered past any
  /// already present).
  static std::filesystem::path next_log_path(const std::filesystem::path& dir);
  /// Lease logs of a campaign directory, sorted by name.
  static std::vector<std::filesystem::path> list_logs(
      const std::filesystem::path& dir);

 private:
  void write_frame(LeaseRecordType type,
                   const std::vector<std::uint8_t>& body);

  std::filesystem::path path_;
  std::ofstream out_;
};

/// Everything a scan of one lease log reconstructs.
struct LeaseLogScan {
  bool has_campaign = false;
  LeaseCampaignInfo campaign;
  std::vector<LeaseGrant> grants;          // in grant order
  std::vector<LeaseComplete> completions;  // in completion order
  std::vector<std::uint64_t> requeues;     // lease ids, in requeue order
  bool torn_tail = false;
  std::string warning;

  /// Grants with neither a completion nor a requeue -- the ranges that were
  /// in flight when the log's session ended.
  std::vector<LeaseGrant> outstanding() const;
};

/// Scans one lease log; torn-tail / CRC semantics as in the header comment.
LeaseLogScan scan_lease_log(const std::filesystem::path& path);

}  // namespace propane::svc
