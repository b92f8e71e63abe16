// Binary schedule-trace format: `ups-trace v3`.
//
// The text format (trace_io.h) is the diffable interchange representation;
// this is the replay representation. Text parsing dominates disk replay —
// every field costs an istream round-trip — while v3 stores each block of
// records as delta-varint columns decoded in tight per-field loops. A v3
// cursor reads a file through a stream one block at a time, so a reader
// holds one block of file bytes however long the trace, and the block
// headers are validated in one walk at open, before any block decodes.
//
// v3 on-disk layout (all integers little-endian, varints LEB128):
//
//   header   64 bytes
//     0   8  magic            "UPSTRCv3"
//     8   4  version          4 (kTraceV3Version)
//     12  4  header_bytes     64
//     16  8  record_count
//     24  8  block_count
//     32  16 reserved (zero)
//     48  4  records_per_block
//     52  12 reserved (zero)
//   blocks back to back from byte 64 to the end of the file, each:
//     block header  96 bytes (kTraceV3BlockHeaderBytes)
//       u32  record_count   in (0, records_per_block]
//       u32  block_bytes    total block size (header + columns)
//       i64  base_ingress   == the block's first record's ingress time
//       i64  max_ingress    == the block's last record's ingress time
//       u32  col_bytes[18]  per-column payload sizes; their sum + 96 must
//                           equal block_bytes
//     column payloads, concatenated in column order (see
//     kTraceV3ColumnNames): each column is one varint stream holding
//     `record_count` values (path/departs data columns hold as many values
//     as the length columns declare; see dropinfo and stallinfo for the
//     two pairs that may be empty). Encodings:
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
//       dropinfo       plain varint; 0 for a delivered record, else
//                      ((drop_hop + 1) << 2) | kind. Empty, with dtime, in
//                      a block where no record was dropped
//       dtime          zigzag(drop_time - ingress); 0 for a delivered record
//       stallinfo      plain varint; 0 for a never-stalled record, else
//                      (stall_count << 16) | (stall_hop + 1). Empty, with
//                      stime, in a block where no record stalled
//       stime          plain varint of the total stalled picoseconds; 0 for
//                      a never-stalled record
//
// Records are stored in non-decreasing ingress order (the writer enforces
// it), and the block headers' ingress bounds let the reader check that
// order across blocks without decoding them. Every delta chain resets at a
// block boundary, so any block decodes standalone. The blocks must tile the
// file from byte 64 to its end exactly, their record counts must sum to
// record_count, and their number must equal block_count; all structural
// damage — bad bounds, a forged count, column over/underrun, varint
// truncation mid-block, misordered blocks — throws trace_format_error.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "net/trace.h"

namespace ups::net {

inline constexpr char kTraceV3Magic[8] = {'U', 'P', 'S', 'T',
                                          'R', 'C', 'v', '3'};
inline constexpr std::uint32_t kTraceV3Version = 4;
inline constexpr std::uint32_t kTraceV3HeaderBytes = 64;
inline constexpr std::uint32_t kTraceV3ColumnCount = 18;
inline constexpr std::uint32_t kTraceV3BlockHeaderBytes =
    24 + 4 * kTraceV3ColumnCount;
// Default records per block: large enough to amortize the 96 B block header
// to ~0.09 B/record and give the per-column decode loops long runs, small
// enough that one decoded block stays cache-resident.
inline constexpr std::uint32_t kTraceV3BlockRecords = 1024;
inline constexpr const char* kTraceV3ColumnNames[kTraceV3ColumnCount] = {
    "ingress", "egress", "id",     "flow",  "seq",  "size",  "src",
    "dst",     "qdelay", "flowsz", "plen",  "path", "dlen",  "departs",
    "dropinfo", "dtime",  "stallinfo", "stime"};

// True when the file starts with the v3 magic; false for anything else,
// including files too short to hold one. Throws only when the file cannot
// be opened. The sniffing primitive behind open_trace_cursor and tracec's
// format dispatch.
[[nodiscard]] bool is_trace_v3_file(const std::string& path);

// Streaming v3 writer with O(1 block) memory: fields of the current block
// accumulate in per-column varint buffers, and a full block is flushed as
// one write. It needs nothing up front: finish() seeks back and patches the
// header's record and block counts, so the stream must be seekable.
//
// Records must be appended in non-decreasing ingress order — the block
// headers' ingress bounds only order a sorted file. Out-of-order appends
// throw trace_format_error.
class trace_v3_writer {
 public:
  explicit trace_v3_writer(
      std::ostream& os, std::uint32_t records_per_block = kTraceV3BlockRecords);
  trace_v3_writer(const trace_v3_writer&) = delete;
  trace_v3_writer& operator=(const trace_v3_writer&) = delete;

  void append(const packet_record& r);
  // Flushes the partial block and patches the header. Must be called
  // exactly once.
  void finish();

  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

 private:
  void flush_block();

  std::ostream* os_;
  std::uint32_t records_per_block_;
  std::uint64_t written_ = 0;
  std::uint64_t blocks_ = 0;

  // Current-block encoder state (delta chains reset every block so blocks
  // decode standalone). prev_ingress_ outlives the block: it is the
  // append-order watermark.
  std::uint32_t in_block_ = 0;
  sim::time_ps block_base_ = 0;
  sim::time_ps prev_ingress_ = INT64_MIN;
  std::uint64_t prev_id_ = 0;
  std::uint64_t prev_flow_ = 0;
  // Whether the block stores its dropinfo/dtime and stallinfo/stime pairs:
  // each is switched on by the block's first dropped (stalled) record.
  bool block_drops_ = false;
  bool block_stalls_ = false;
  std::array<std::vector<std::uint8_t>, kTraceV3ColumnCount> cols_;
  std::vector<std::uint8_t> block_buf_;  // reused assembly scratch
  bool finished_ = false;
};

// Whole-trace writers: records are emitted as trace_ingress_cursor yields
// them, in (ingress_time, position) order, so the input trace may be in any
// order and replay outcomes stay byte-identical to the v1 path.
void write_trace_v3(std::ostream& os, const trace& t);
void save_trace_v3(const std::string& path, const trace& t);

// Ingress-ordered trace_cursor over a v3 file, read through a std::istream
// the way trace_v3_writer writes one. At open it sizes the stream, checks
// the header and walks the block headers once (bounds, ordering, column
// sizes, exact file size, the declared record and block counts), keeping
// each block's offset. Then it drains the file front to back one block at
// a time: it reads the block's bytes into one buffer and decodes them
// column by column — each column one varint loop over a contiguous byte
// run — straight into the block's packet_record slots, which next() hands
// out by pointer. The buffer, the slots and their path/departs vectors are
// reused across blocks and never shrink, so once they have grown to the
// largest block decoding performs no heap allocation. A short read, as on a
// file truncated after open, throws trace_format_error.
class trace_v3_cursor final : public trace_cursor {
 public:
  // Opens and owns a binary file stream.
  explicit trace_v3_cursor(const std::string& path);
  // Borrows a seekable stream whose offset 0 is the file's first byte; `is`
  // must outlive the cursor.
  explicit trace_v3_cursor(std::istream& is);
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
    return block_offsets_.size();
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
  // Placement and ingress bounds of block `b`, read off its block header
  // (validated at construction). These three read the header from the
  // stream; a drain seeks before every block, so they may run at any time.
  [[nodiscard]] block_bounds bounds_at(std::uint64_t b) const;
  // Record count / per-column payload bytes of block `b`, read off its
  // block header without decoding.
  [[nodiscard]] std::uint32_t records_in_block(std::uint64_t b) const;
  [[nodiscard]] std::array<std::uint32_t, kTraceV3ColumnCount>
  column_bytes_at(std::uint64_t b) const;

  [[nodiscard]] std::size_t file_size() const noexcept { return size_; }

 private:
  void validate_blocks();
  // Reads `n` bytes at file offset `off` into `dst`; a short read throws.
  void read_at(std::uint64_t off, std::uint8_t* dst, std::size_t n) const;
  // The header of block `b`; throws std::out_of_range past the last block.
  [[nodiscard]] std::array<std::uint8_t, kTraceV3BlockHeaderBytes> header_at(
      std::uint64_t b) const;
  // Decodes block `b` into records_[0, n) and makes it the serving block.
  void decode_block(std::uint64_t b);

  std::ifstream owned_;
  std::istream* is_;
  std::size_t size_ = 0;

  std::uint64_t count_ = 0;
  std::uint32_t records_per_block_ = 0;
  // File offset of each block, found by the walk at open: the file, not a
  // header count, decides how many there are.
  std::vector<std::uint64_t> block_offsets_;

  // Serving state: the decoded block's records live in records_[0, block_n_).
  std::uint32_t block_n_ = 0;
  std::uint32_t block_pos_ = 0;  // next record within the decoded block
  std::uint64_t next_block_ = 0;
  std::uint64_t served_ = 0;
  // Sized to the largest block seen and never shrunk: the decoding block's
  // file bytes, and its record slots with their warmed vector capacities.
  std::vector<std::uint8_t> block_bytes_;
  std::vector<packet_record> records_;
  // Set once a block stored its drop (stall) pair: from then on a block
  // without the pair resets its slots' drop (stall) fields.
  bool drops_seen_ = false;
  bool stalls_seen_ = false;
};

}  // namespace ups::net
