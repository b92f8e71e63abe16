// Binary schedule-trace format: `ups-trace v3`.
//
// The text format (trace_io.h) is the diffable interchange representation;
// this is the replay representation. Text parsing dominates disk replay —
// every field costs an istream round-trip — while v3 stores each block of
// records as delta-varint columns decoded in tight per-field loops. A v3
// file mmaps read-only, so multiple shard workers can walk the same mapping
// without a per-worker copy of the trace, and its leading block index lets
// each of them seek straight to its range.
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
//   entry per block, so a reader seeks mid-file after touching only the
//   head of the file —
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
// it), so the block index IS the seek structure: binary-search min/max
// bounds, decode that block, go — no footer, no per-record index. Every
// delta chain resets at a block boundary, so any block decodes standalone.
// File size must equal data_offset plus the sum of the indexed block sizes
// exactly; all structural damage — bad bounds, column over/underrun, varint
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
// long runs, small enough that the SoA scratch stays cache-resident.
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

// Page-cache advice for the file-backed cursor: a serial replay drains the
// whole mapping front to back (MADV_SEQUENTIAL — aggressive readahead,
// early reclaim), a block-seek consumer jumps via the index
// (MADV_RANDOM — no wasted readahead). Matters once the trace exceeds page
// cache; harmless below that.
enum class trace_access : std::uint8_t { sequential, random };

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

// Whole-trace writers: records are emitted in (ingress_time, position)
// order — the same stable tie-break trace_ingress_cursor uses — so the
// input trace may be in any order and replay outcomes stay byte-identical
// to the v1 path.
void write_trace_v3(std::ostream& os, const trace& t);
void save_trace_v3(const std::string& path, const trace& t);

// Decodes a whole v3 file into memory in file order (== ingress order for
// v3). The converter's path back to text; replay should use
// trace_v3_cursor.
[[nodiscard]] trace load_trace_v3(const std::string& path);
[[nodiscard]] trace read_trace_v3(const std::uint8_t* data, std::size_t size);

// Ingress-ordered trace_cursor over a v3 file: mmaps the file read-only,
// validates the leading block index once (bounds, ordering, exact file
// size), then decodes one block at a time into reused structure-of-arrays
// scratch — each column is one tight varint loop over a contiguous byte
// run, the shape a compiler can keep in registers and the prefetcher can
// predict. next()/next_run() assemble packet_record slots out of the
// decoded arrays; same-instant run detection is an array scan, not a
// decode. Zero steady-state allocation once the scratch buffers warm.
//
// Because every block decodes standalone and the index lives at the head of
// the file, seek_lower_bound()/seek_to_block() start mid-file after
// touching only the header + index pages — no footer read, which is what
// lets disk shards fan out over one huge mapping.
class trace_v3_cursor final : public trace_cursor {
 public:
  explicit trace_v3_cursor(const std::string& path,
                           trace_access access = trace_access::sequential);
  // Borrows an external buffer (tests over mutated images). The buffer must
  // outlive the cursor.
  trace_v3_cursor(const std::uint8_t* data, std::size_t size);
  ~trace_v3_cursor() override;
  trace_v3_cursor(const trace_v3_cursor&) = delete;
  trace_v3_cursor& operator=(const trace_v3_cursor&) = delete;

  [[nodiscard]] const packet_record* next() override;
  std::size_t next_run(std::vector<const packet_record*>& out) override;
  [[nodiscard]] std::size_t size_hint() const noexcept override {
    return static_cast<std::size_t>(count_);
  }
  // Records handed out since construction or the last seek.
  [[nodiscard]] std::size_t read() const noexcept {
    return static_cast<std::size_t>(served_);
  }

  [[nodiscard]] std::uint64_t block_count() const noexcept {
    return block_count_;
  }
  [[nodiscard]] std::uint32_t records_per_block() const noexcept {
    return records_per_block_;
  }
  // Index of the block the next record will come from (block_count() once
  // exhausted) — lets a block-range consumer stop exactly at its fence.
  [[nodiscard]] std::uint64_t current_block() const noexcept;

  struct block_bounds {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    sim::time_ps min_ingress = 0;
    sim::time_ps max_ingress = 0;
  };
  // Index entry of block `b` (bounds were validated at construction).
  [[nodiscard]] block_bounds bounds_at(std::uint64_t b) const;
  // Record count / per-column payload bytes of block `b`, read off its
  // block header without decoding. Inspection tools only.
  [[nodiscard]] std::uint32_t records_in_block(std::uint64_t b) const;
  [[nodiscard]] std::array<std::uint32_t, kTraceV3MaxColumnCount>
  column_bytes_at(std::uint64_t b) const;
  // Columns stored per record in this file: kTraceV3ColumnCount for
  // zero-loss traces, kTraceV3DropColumnCount when drop columns are
  // present, kTraceV3StallColumnCount when stall columns are too.
  [[nodiscard]] std::uint32_t column_count() const noexcept { return ncols_; }

  // Repositions at the first record of block `b` (binary entry point for
  // block-range consumers) or at the first record whose ingress time is
  // >= t (binary search over the index bounds). Seeking disables the
  // end-of-file total-record-count cross-check — a seeked cursor no longer
  // sees every block.
  void seek_to_block(std::uint64_t b);
  void seek_lower_bound(sim::time_ps t);

  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t file_size() const noexcept { return size_; }

 private:
  // Everything one block decode produces, structure-of-arrays plus the
  // assembled records. All vector capacities persist across reuse (zero
  // steady-state allocation once warm).
  struct v3_block_scratch {
    std::uint32_t n = 0;  // records decoded
    std::vector<sim::time_ps> ingress, egress, qdelay;
    std::vector<std::uint64_t> id, flow, fsize;
    std::vector<std::uint32_t> seq, psize;
    std::vector<node_id> src, dst;
    std::vector<std::uint32_t> path_pos, departs_pos;  // prefix offsets
    std::vector<node_id> path_flat;
    std::vector<sim::time_ps> departs_flat;
    // Drop columns (sized only for 16+-column files; empty otherwise).
    std::vector<std::uint32_t> dropinfo;  // 0, or ((drop_hop+1)<<2)|kind
    std::vector<sim::time_ps> drop_time;
    // Stall columns (sized only for 18-column files; empty otherwise).
    std::vector<std::uint64_t> stallinfo;  // 0, or (count<<16)|(hop+1)
    std::vector<sim::time_ps> stall_time;
    // Raw batched-varint staging shared by every column of a block.
    std::vector<std::uint64_t> raw;
    // Assembled records, served by pointer; sized to the largest block
    // seen and never shrunk so slot capacities persist.
    std::vector<packet_record> records;
  };

  void validate_header_and_index();
  // Decodes block `b` into scratch_.
  void decode_block(std::uint64_t b);
  void assemble(const v3_block_scratch& sc, std::uint32_t i,
                packet_record& r) const;
  // Makes the next block current if the present one is exhausted; false at
  // end of file.
  bool ensure_block();

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

  // Serving state: the current block lives in scratch_.
  std::uint64_t cur_block_ = UINT64_MAX;
  std::uint32_t block_n_ = 0;   // records in the decoded block
  std::uint32_t block_pos_ = 0; // next record within the decoded block
  std::uint64_t next_block_ = 0;
  std::uint64_t served_ = 0;
  bool seeked_ = false;
  v3_block_scratch scratch_;  // the current block, decoded
  std::vector<packet_record> slots_;  // copy-out storage for runs that
                                      // span a block boundary (rare)
};

}  // namespace ups::net
