// Binary schedule-trace format: `ups-trace v3`.
//
// The text format (trace_io.h) is the diffable interchange representation;
// this is the replay representation. Text parsing dominates disk replay —
// every field costs an istream round-trip — while v3 stores each block of
// records as delta-varint columns decoded in tight per-field loops. A v3
// file mmaps read-only, so multiple replay workers can walk the same
// mapping without a per-worker copy of the trace, and its leading block
// index is validated in one pass at open, before any block decodes.
//
// v3 on-disk layout (all integers little-endian, varints LEB128):
//
//   header   64 bytes
//     0   8  magic            "UPSTRCv3"
//     8   4  version          3 (kTraceV3Version)
//     12  4  header_bytes     64
//     16  8  record_count
//     24  8  block_count
//     32  8  data_offset      == 64 + 32*index_capacity
//     40  8  index_capacity   index slots reserved (>= block_count)
//     48  4  records_per_block
//     52  4  column_count     0 (legacy, meaning 14) or the number of
//                             per-block columns; lossy traces write 16
//                             (the 14 base columns + dropinfo + dtime),
//                             backpressured traces 18 (those 16 +
//                             stallinfo + stime)
//     56  8  reserved (zero)
//   block index directly after the header (NOT a footer): one 32-byte
//   entry per block, so a reader checks the whole file's layout after
//   touching only its head and the block headers —
//     u64  offset          first byte of the block
//     u64  bytes           total block size (header + columns)
//     i64  min_ingress     == the block's first record's ingress time
//     i64  max_ingress     == the block's last record's ingress time
//   blocks back to back from data_offset, each:
//     block header  24 + 4*column_count bytes (80 legacy, 88 lossy,
//                   96 backpressured)
//       u32  record_count   in (0, records_per_block]
//       u32  block_bytes    == the index entry's `bytes`
//       i64  base_ingress   == the index entry's min_ingress
//       i64  max_ingress    == the index entry's max_ingress
//       u32  col_bytes[column_count]  per-column payload sizes; their sum
//                           + the block header size must equal block_bytes
//     column payloads, concatenated in column order (see
//     kTraceV3ColumnNames): each column is one varint stream holding
//     `record_count` values (path/departs data columns hold as many values
//     as the length columns declare). Encodings:
//       ingress        unsigned delta from the previous record (the first
//                      record's delta from base_ingress must be 0)
//       egress         zigzag(egress - ingress)
//       id, flow       zigzag of the wrapping u64 delta from the previous
//                      record (0 before the block's first record)
//       seq, size,
//       flowsz, plen,
//       dlen           plain varint
//       src, dst       zigzag
//       qdelay         zigzag
//       path data      zigzag per hop
//       departs data   zigzag delta chain seeded from the record's ingress
//       dropinfo       (16+-column files only) plain varint; 0 for a
//                      delivered record, else ((drop_hop + 1) << 2) | kind
//       dtime          (16+-column files only) zigzag(drop_time - ingress);
//                      0 for a delivered record
//       stallinfo      (18-column files only) plain varint; 0 for a
//                      never-stalled record, else
//                      (stall_count << 16) | (stall_hop + 1)
//       stime          (18-column files only) plain varint of the total
//                      stalled picoseconds; 0 for a never-stalled record
//
// Records are stored in non-decreasing ingress order (the writer enforces
// it), and the index's min/max bounds let the reader check that order
// across blocks without decoding them. Every delta chain resets at a block
// boundary, so any block decodes standalone. File size must equal
// data_offset plus the sum of the indexed block sizes exactly, and the
// block headers' record counts must sum to record_count; all structural
// damage — bad bounds, a forged count, column over/underrun, varint
// truncation mid-block, misordered blocks — throws trace_format_error.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/trace.h"

namespace ups::net {

inline constexpr char kTraceV3Magic[8] = {'U', 'P', 'S', 'T',
                                          'R', 'C', 'v', '3'};
inline constexpr std::uint32_t kTraceV3Version = 3;
inline constexpr std::uint32_t kTraceV3HeaderBytes = 64;
inline constexpr std::uint32_t kTraceV3IndexEntryBytes = 32;
// Block header size of a legacy (14-column) file; the general form is
// 24 + 4 * column_count.
inline constexpr std::uint32_t kTraceV3BlockHeaderBytes = 80;
// Default records per block: large enough to amortize the 80B block header
// + 32B index entry to ~0.03 B/record and give the per-column decode loops
// long runs, small enough that one decoded block stays cache-resident.
inline constexpr std::uint32_t kTraceV3BlockRecords = 1024;
// Base column set (zero-loss traces; header column_count 0 means this),
// the widened set lossy traces write (base + dropinfo + dtime), and the
// widest set backpressured traces write (those + stallinfo + stime).
inline constexpr std::uint32_t kTraceV3ColumnCount = 14;
inline constexpr std::uint32_t kTraceV3DropColumnCount = 16;
inline constexpr std::uint32_t kTraceV3StallColumnCount = 18;
inline constexpr std::uint32_t kTraceV3MaxColumnCount = 18;
inline constexpr const char* kTraceV3ColumnNames[kTraceV3MaxColumnCount] = {
    "ingress", "egress", "id",     "flow",  "seq",  "size",  "src",
    "dst",     "qdelay", "flowsz", "plen",  "path", "dlen",  "departs",
    "dropinfo", "dtime",  "stallinfo", "stime"};

[[nodiscard]] constexpr std::uint32_t trace_v3_block_header_bytes(
    std::uint32_t column_count) noexcept {
  return 24 + 4 * column_count;
}

// True when the file starts with the v3 magic; false for anything else,
// including files too short to hold one. Throws only when the file cannot
// be opened. The sniffing primitive behind open_trace_cursor and tracec's
// format dispatch.
[[nodiscard]] bool is_trace_v3_file(const std::string& path);

// Streaming v3 writer with O(1 block) record memory: fields of the current
// block accumulate in per-column varint buffers, a full block is flushed as
// one write, and the only cross-block state retained is the 32-byte index
// entry per block. The leading index region is reserved at construction
// (`record_capacity` rounds up to index slots), so the caller must know an
// upper bound on the record count — every producer in this codebase does
// (in-memory traces, the v1 header's declared count, a v3 header's
// record_count). finish() seeks back, fills the index, and patches the
// header; unused reserved slots stay zeroed (32 wasted bytes each, only
// when fewer records arrive than the capacity promised).
//
// Records must be appended in non-decreasing ingress order — the block
// index can only bound-and-seek over a sorted file. Out-of-order appends
// throw trace_format_error.
class trace_v3_writer {
 public:
  // `with_drops` widens the column set to kTraceV3DropColumnCount so drop
  // records can be stored, and `with_stalls` to kTraceV3StallColumnCount
  // for stall records (stalls imply the drop columns too — the layout is a
  // strict prefix chain); appending a dropped/stalled record to a
  // too-narrow writer throws. Zero-loss zero-stall traces must keep both
  // false so their bytes stay identical to files written before drop and
  // stall support existed.
  trace_v3_writer(std::ostream& os, std::uint64_t record_capacity,
                  std::uint32_t records_per_block = kTraceV3BlockRecords,
                  bool with_drops = false, bool with_stalls = false);
  trace_v3_writer(const trace_v3_writer&) = delete;
  trace_v3_writer& operator=(const trace_v3_writer&) = delete;

  void append(const packet_record& r);
  // Flushes the partial block, writes the leading index, patches the
  // header. Must be called exactly once.
  void finish();

  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

 private:
  void flush_block();

  std::ostream* os_;
  std::uint32_t records_per_block_;
  std::uint64_t index_capacity_;
  std::uint64_t data_offset_;
  std::uint64_t offset_;  // next block's file offset
  std::uint64_t written_ = 0;

  // Current-block encoder state (delta chains reset every block so blocks
  // decode standalone).
  std::uint32_t in_block_ = 0;
  sim::time_ps block_base_ = 0;
  sim::time_ps prev_ingress_ = 0;
  std::uint64_t prev_id_ = 0;
  std::uint64_t prev_flow_ = 0;
  std::uint32_t ncols_;  // 14 base, 16 with drops, 18 with stalls
  std::array<std::vector<std::uint8_t>, kTraceV3MaxColumnCount> cols_;
  std::vector<std::uint8_t> block_buf_;  // reused assembly scratch

  struct index_entry {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    sim::time_ps min_ingress = 0;
    sim::time_ps max_ingress = 0;
  };
  std::vector<index_entry> index_;       // 32 B per flushed block
  sim::time_ps last_ingress_ = INT64_MIN;  // append-order watermark
  bool finished_ = false;
};

// Whole-trace writers: records are emitted as trace_ingress_cursor yields
// them, in (ingress_time, position) order, so the input trace may be in any
// order and replay outcomes stay byte-identical to the v1 path.
void write_trace_v3(std::ostream& os, const trace& t);
void save_trace_v3(const std::string& path, const trace& t);

// Ingress-ordered trace_cursor over a v3 file: mmaps the file read-only
// (advising sequential readahead), validates the leading block index and
// the block headers' record counts once at open (bounds, ordering, exact
// file size, the declared record_count), then drains the file front to
// back one block at a time. A block decodes column by column — each column
// one varint loop over a contiguous byte run — straight into the block's
// packet_record slots, and next() hands those slots out by pointer. The
// slots and their path/departs vectors are reused across blocks and never
// shrink, so once they have grown to the largest block's shape decoding
// performs no heap allocation.
class trace_v3_cursor final : public trace_cursor {
 public:
  explicit trace_v3_cursor(const std::string& path);
  // Borrows an external buffer (tests over mutated images). The buffer must
  // outlive the cursor.
  trace_v3_cursor(const std::uint8_t* data, std::size_t size);
  ~trace_v3_cursor() override;
  trace_v3_cursor(const trace_v3_cursor&) = delete;
  trace_v3_cursor& operator=(const trace_v3_cursor&) = delete;

  [[nodiscard]] const packet_record* next() override;
  [[nodiscard]] std::size_t size_hint() const noexcept override {
    return static_cast<std::size_t>(count_);
  }
  // Records handed out since construction.
  [[nodiscard]] std::size_t read() const noexcept {
    return static_cast<std::size_t>(served_);
  }

  [[nodiscard]] std::uint64_t block_count() const noexcept {
    return block_count_;
  }
  [[nodiscard]] std::uint32_t records_per_block() const noexcept {
    return records_per_block_;
  }
  struct block_bounds {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    sim::time_ps min_ingress = 0;
    sim::time_ps max_ingress = 0;
  };
  // Index entry of block `b` (bounds were validated at construction).
  [[nodiscard]] block_bounds bounds_at(std::uint64_t b) const;
  // Record count / per-column payload bytes of block `b`, read off its
  // block header without decoding.
  [[nodiscard]] std::uint32_t records_in_block(std::uint64_t b) const;
  [[nodiscard]] std::array<std::uint32_t, kTraceV3MaxColumnCount>
  column_bytes_at(std::uint64_t b) const;
  // Columns stored per record in this file: kTraceV3ColumnCount for
  // zero-loss traces, kTraceV3DropColumnCount when drop columns are
  // present, kTraceV3StallColumnCount when stall columns are too.
  [[nodiscard]] std::uint32_t column_count() const noexcept { return ncols_; }

  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t file_size() const noexcept { return size_; }

 private:
  void validate_header_and_index();
  // Decodes block `b` into records_[0, n) and makes it the serving block.
  void decode_block(std::uint64_t b);

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* mapping_ = nullptr;
  std::size_t mapping_size_ = 0;
  std::vector<std::uint8_t> owned_bytes_;

  std::uint64_t count_ = 0;
  std::uint64_t block_count_ = 0;
  std::uint64_t data_offset_ = 0;
  std::uint64_t index_capacity_ = 0;
  std::uint32_t records_per_block_ = 0;
  std::uint32_t ncols_ = kTraceV3ColumnCount;  // from the header

  // Serving state: the decoded block's records live in records_[0, block_n_).
  std::uint32_t block_n_ = 0;
  std::uint32_t block_pos_ = 0;  // next record within the decoded block
  std::uint64_t next_block_ = 0;
  std::uint64_t served_ = 0;
  // Sized to the largest block seen and never shrunk, so every slot keeps
  // its warmed vector capacities.
  std::vector<packet_record> records_;
};

}  // namespace ups::net
