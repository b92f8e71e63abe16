#include "net/trace_binary.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>

#include "core/varint.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define UPS_TRACE_HAVE_MMAP 1
#endif

namespace ups::net {

namespace {

static_assert(std::endian::native == std::endian::little,
              "binary trace I/O assumes a little-endian host; add "
              "byte-swapping load/store helpers before porting to a "
              "big-endian target");

template <typename T>
[[nodiscard]] T load_le(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));  // unaligned-safe; LE host asserted above
  return v;
}

template <typename T>
void store_le(std::uint8_t* p, T v) noexcept {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
  const std::size_t n = buf.size();
  buf.resize(n + sizeof(T));
  store_le(buf.data() + n, v);
}

// Maps `path` read-only (falling back to an owned buffer without mmap) and
// applies the page-cache advice.
struct file_image {
  void* mapping = nullptr;  // non-null when mmap owns the bytes
  std::size_t mapping_size = 0;
  std::vector<std::uint8_t> owned;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

file_image map_trace_file(const std::string& path, trace_access access) {
  file_image img;
#if UPS_TRACE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("trace: cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("trace: cannot stat " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw trace_format_error("trace: file shorter than a trace header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    throw std::runtime_error("trace: mmap failed for " + path);
  }
#if defined(MADV_SEQUENTIAL) && defined(MADV_RANDOM)
  // Advice only — a failure costs readahead tuning, never correctness.
  (void)::madvise(map, size,
                  access == trace_access::random ? MADV_RANDOM
                                                 : MADV_SEQUENTIAL);
#endif
#if defined(MADV_WILLNEED)
  // Front-to-back consumers want the whole file; start the fetch now so
  // the first blocks stream in behind the header/index validation pass.
  if (access != trace_access::random) {
    (void)::madvise(map, size, MADV_WILLNEED);
  }
#endif
  img.mapping = map;
  img.mapping_size = size;
  img.data = static_cast<const std::uint8_t*>(map);
  img.size = size;
#else
  (void)access;
  // No mmap on this platform: fall back to reading the file into an owned
  // buffer (still one parse-free image; just not shared across processes).
  // One sized read — istreambuf_iterator would pull the file a character
  // at a time through virtual calls.
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  const std::streamoff size = is.tellg();
  img.owned.resize(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(img.owned.data()), size);
  if (!is) throw std::runtime_error("trace: read failed for " + path);
  img.data = img.owned.data();
  img.size = img.owned.size();
#endif
  return img;
}

[[nodiscard]] bool file_starts_with(const std::string& path,
                                    const char (&magic)[8]) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  char head[8] = {};
  is.read(head, sizeof(head));
  return is.gcount() == sizeof(head) &&
         std::memcmp(head, magic, sizeof(head)) == 0;
}

// --- v3 primitives -----------------------------------------------------------

// LEB128 + zigzag come from the shared core implementation; the decoders
// below go through core::get_varints — the SWAR batch path with the
// bounds-checked scalar loop as reference tail — bound to this format's
// typed error.
using core::put_varint;
using core::unzigzag;
using core::zigzag;

// Decodes exactly `count` varints of column `what` into `out`.
inline void get_column(const std::uint8_t*& p, const std::uint8_t* end,
                       std::uint64_t* out, std::size_t count,
                       const char* what) {
  core::get_varints<trace_format_error>(p, end, out, count, what);
}

// Wrapping u64 difference cast to signed: round-trips every (a, b) pair
// exactly (the decoder applies the inverse wrap), while keeping the common
// small-difference case one varint byte. Avoids the signed-overflow UB a
// plain i64 subtraction would hit on extreme operands.
[[nodiscard]] constexpr std::int64_t wrap_diff(std::int64_t a,
                                               std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] constexpr std::int64_t wrap_add(std::int64_t base,
                                              std::int64_t delta) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(base) +
                                   static_cast<std::uint64_t>(delta));
}

[[nodiscard]] std::uint32_t narrow_u32(std::uint64_t v, const char* what) {
  if (v > UINT32_MAX) {
    throw trace_format_error(std::string("trace v3: ") + what +
                             " overflows 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

[[nodiscard]] node_id narrow_node(std::int64_t v, const char* what) {
  if (v < INT32_MIN || v > INT32_MAX) {
    throw trace_format_error(std::string("trace v3: ") + what +
                             " overflows a node id");
  }
  return static_cast<node_id>(v);
}

// Column order (see kTraceV3ColumnNames): the numeric indices below are the
// single source of truth for both encoder and decoder.
enum v3_col : std::size_t {
  kColIngress = 0,
  kColEgress = 1,
  kColId = 2,
  kColFlow = 3,
  kColSeq = 4,
  kColSize = 5,
  kColSrc = 6,
  kColDst = 7,
  kColQdelay = 8,
  kColFlowSize = 9,
  kColPathLen = 10,
  kColPath = 11,
  kColDepartsLen = 12,
  kColDeparts = 13,
  // 16-column (lossy) files only:
  kColDropInfo = 14,
  kColDropTime = 15,
  // 18-column (backpressured) files only:
  kColStallInfo = 16,
  kColStallTime = 17,
};

struct v3_header_fields {
  std::uint64_t record_count = 0;
  std::uint64_t block_count = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t index_capacity = 0;
  std::uint32_t records_per_block = 0;
  std::uint32_t column_count = 0;  // normalized: 0 -> kTraceV3ColumnCount
};

v3_header_fields check_v3_header(const std::uint8_t* data, std::size_t size) {
  if (size < kTraceV3HeaderBytes) {
    throw trace_format_error("trace v3: file shorter than the header");
  }
  if (std::memcmp(data, kTraceV3Magic, sizeof(kTraceV3Magic)) != 0) {
    throw trace_format_error("trace v3: bad magic");
  }
  const std::uint32_t version = load_le<std::uint32_t>(data + 8);
  if (version != kTraceV3Version) {
    throw trace_format_error("trace v3: unsupported version " +
                             std::to_string(version));
  }
  const std::uint32_t header_bytes = load_le<std::uint32_t>(data + 12);
  if (header_bytes != kTraceV3HeaderBytes) {
    throw trace_format_error("trace v3: unexpected header size");
  }
  v3_header_fields h;
  h.record_count = load_le<std::uint64_t>(data + 16);
  h.block_count = load_le<std::uint64_t>(data + 24);
  h.data_offset = load_le<std::uint64_t>(data + 32);
  h.index_capacity = load_le<std::uint64_t>(data + 40);
  h.records_per_block = load_le<std::uint32_t>(data + 48);
  if (h.records_per_block == 0) {
    throw trace_format_error("trace v3: zero records per block");
  }
  h.column_count = load_le<std::uint32_t>(data + 52);
  if (h.column_count == 0) h.column_count = kTraceV3ColumnCount;
  if (h.column_count != kTraceV3ColumnCount &&
      h.column_count != kTraceV3DropColumnCount &&
      h.column_count != kTraceV3StallColumnCount) {
    throw trace_format_error("trace v3: unsupported column count " +
                             std::to_string(h.column_count));
  }
  // Division-form bound first so the multiplication below cannot overflow.
  if (h.index_capacity >
      (size - kTraceV3HeaderBytes) / kTraceV3IndexEntryBytes) {
    throw trace_format_error("trace v3: index region out of bounds");
  }
  if (h.data_offset != kTraceV3HeaderBytes +
                           kTraceV3IndexEntryBytes * h.index_capacity) {
    throw trace_format_error(
        "trace v3: data offset disagrees with index capacity");
  }
  if (h.block_count > h.index_capacity) {
    throw trace_format_error("trace v3: block count exceeds index capacity");
  }
  return h;
}

}  // namespace

bool is_trace_v3_file(const std::string& path) {
  return file_starts_with(path, kTraceV3Magic);
}

// --- v3 writer ---------------------------------------------------------------

trace_v3_writer::trace_v3_writer(std::ostream& os,
                                 std::uint64_t record_capacity,
                                 std::uint32_t records_per_block,
                                 bool with_drops, bool with_stalls)
    : os_(&os),
      records_per_block_(records_per_block),
      ncols_(with_stalls ? kTraceV3StallColumnCount
             : with_drops ? kTraceV3DropColumnCount
                          : kTraceV3ColumnCount) {
  if (records_per_block_ == 0) {
    throw std::logic_error("trace_v3_writer: records_per_block must be > 0");
  }
  index_capacity_ =
      (record_capacity + records_per_block_ - 1) / records_per_block_;
  data_offset_ = kTraceV3HeaderBytes +
                 static_cast<std::uint64_t>(kTraceV3IndexEntryBytes) *
                     index_capacity_;
  offset_ = data_offset_;
  std::uint8_t header[kTraceV3HeaderBytes] = {};
  std::memcpy(header, kTraceV3Magic, sizeof(kTraceV3Magic));
  store_le<std::uint32_t>(header + 8, kTraceV3Version);
  store_le<std::uint32_t>(header + 12, kTraceV3HeaderBytes);
  // record_count / block_count at 16/24 stay zero until finish() patches.
  store_le<std::uint64_t>(header + 32, data_offset_);
  store_le<std::uint64_t>(header + 40, index_capacity_);
  store_le<std::uint32_t>(header + 48, records_per_block_);
  // Zero-loss files leave column_count 0 (legacy spelling of the 14 base
  // columns) so their bytes stay identical to pre-drop-support output.
  if (ncols_ != kTraceV3ColumnCount) {
    store_le<std::uint32_t>(header + 52, ncols_);
  }
  os_->write(reinterpret_cast<const char*>(header), sizeof(header));
  // Reserve the index region as zeros; finish() seeks back and fills it.
  static constexpr std::size_t kChunk = 1 << 16;
  std::uint8_t zeros[kChunk] = {};
  std::uint64_t left =
      static_cast<std::uint64_t>(kTraceV3IndexEntryBytes) * index_capacity_;
  while (left > 0) {
    const std::size_t step =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, kChunk));
    os_->write(reinterpret_cast<const char*>(zeros),
               static_cast<std::streamsize>(step));
    left -= step;
  }
  if (!*os_) throw trace_format_error("trace v3: header write failed");
  index_.reserve(index_capacity_);
}

void trace_v3_writer::append(const packet_record& r) {
  if (finished_) {
    throw std::logic_error("trace_v3_writer: append after finish");
  }
  if (r.ingress_time < last_ingress_) {
    throw trace_format_error(
        "trace v3: records must be appended in ingress order");
  }
  last_ingress_ = r.ingress_time;
  if (in_block_ == 0) {
    block_base_ = r.ingress_time;
    prev_ingress_ = r.ingress_time;
    prev_id_ = 0;
    prev_flow_ = 0;
  }
  put_varint(cols_[kColIngress],
             static_cast<std::uint64_t>(r.ingress_time) -
                 static_cast<std::uint64_t>(prev_ingress_));
  prev_ingress_ = r.ingress_time;
  put_varint(cols_[kColEgress],
             zigzag(wrap_diff(r.egress_time, r.ingress_time)));
  put_varint(cols_[kColId],
             zigzag(static_cast<std::int64_t>(r.id - prev_id_)));
  prev_id_ = r.id;
  put_varint(cols_[kColFlow],
             zigzag(static_cast<std::int64_t>(r.flow_id - prev_flow_)));
  prev_flow_ = r.flow_id;
  put_varint(cols_[kColSeq], r.seq_in_flow);
  put_varint(cols_[kColSize], r.size_bytes);
  put_varint(cols_[kColSrc], zigzag(r.src_host));
  put_varint(cols_[kColDst], zigzag(r.dst_host));
  put_varint(cols_[kColQdelay], zigzag(r.queueing_delay));
  put_varint(cols_[kColFlowSize], r.flow_size_bytes);
  put_varint(cols_[kColPathLen], r.path.size());
  for (const node_id n : r.path) put_varint(cols_[kColPath], zigzag(n));
  put_varint(cols_[kColDepartsLen], r.hop_departs.size());
  sim::time_ps prev_depart = r.ingress_time;
  for (const sim::time_ps d : r.hop_departs) {
    put_varint(cols_[kColDeparts], zigzag(wrap_diff(d, prev_depart)));
    prev_depart = d;
  }
  if (ncols_ >= kTraceV3DropColumnCount) {
    const std::uint64_t info =
        r.dropped() ? ((static_cast<std::uint64_t>(r.drop_hop) + 1) << 2) |
                          static_cast<std::uint64_t>(r.dropped_kind)
                    : 0;
    put_varint(cols_[kColDropInfo], info);
    put_varint(cols_[kColDropTime],
               r.dropped() ? zigzag(wrap_diff(r.drop_time, r.ingress_time))
                           : 0);
  } else if (r.dropped()) {
    throw trace_format_error(
        "trace v3: dropped record appended to a writer without drop "
        "columns");
  }
  if (ncols_ >= kTraceV3StallColumnCount) {
    const std::uint64_t sinfo =
        r.stalled() ? (static_cast<std::uint64_t>(r.stall_count) << 16) |
                          (static_cast<std::uint64_t>(r.stall_hop) + 1)
                    : 0;
    put_varint(cols_[kColStallInfo], sinfo);
    put_varint(cols_[kColStallTime],
               r.stalled() ? static_cast<std::uint64_t>(r.stall_time) : 0);
  } else if (r.stalled()) {
    throw trace_format_error(
        "trace v3: stalled record appended to a writer without stall "
        "columns");
  }
  ++in_block_;
  ++written_;
  if (in_block_ == records_per_block_) flush_block();
}

void trace_v3_writer::flush_block() {
  if (in_block_ == 0) return;
  if (index_.size() == index_capacity_) {
    throw trace_format_error(
        "trace v3: writer exceeded its declared record capacity");
  }
  const std::uint32_t header_bytes = trace_v3_block_header_bytes(ncols_);
  std::uint64_t bytes = header_bytes;
  for (std::size_t c = 0; c < ncols_; ++c) bytes += cols_[c].size();
  if (bytes > UINT32_MAX) {
    throw trace_format_error("trace v3: block exceeds 4 GiB");
  }
  block_buf_.clear();
  block_buf_.resize(header_bytes);
  std::uint8_t* h = block_buf_.data();
  store_le<std::uint32_t>(h, in_block_);
  store_le<std::uint32_t>(h + 4, static_cast<std::uint32_t>(bytes));
  store_le<std::int64_t>(h + 8, block_base_);
  store_le<std::int64_t>(h + 16, prev_ingress_);  // block max ingress
  for (std::size_t c = 0; c < ncols_; ++c) {
    store_le<std::uint32_t>(h + 24 + 4 * c,
                            static_cast<std::uint32_t>(cols_[c].size()));
  }
  for (std::size_t c = 0; c < ncols_; ++c) {
    block_buf_.insert(block_buf_.end(), cols_[c].begin(), cols_[c].end());
    cols_[c].clear();
  }
  os_->write(reinterpret_cast<const char*>(block_buf_.data()),
             static_cast<std::streamsize>(block_buf_.size()));
  if (!*os_) throw trace_format_error("trace v3: block write failed");
  index_.push_back({offset_, bytes, block_base_, prev_ingress_});
  offset_ += bytes;
  in_block_ = 0;
}

void trace_v3_writer::finish() {
  if (finished_) {
    throw std::logic_error("trace_v3_writer: finish called twice");
  }
  flush_block();
  finished_ = true;
  block_buf_.clear();
  for (const auto& e : index_) {
    append_le<std::uint64_t>(block_buf_, e.offset);
    append_le<std::uint64_t>(block_buf_, e.bytes);
    append_le<std::int64_t>(block_buf_, e.min_ingress);
    append_le<std::int64_t>(block_buf_, e.max_ingress);
  }
  os_->seekp(kTraceV3HeaderBytes);
  os_->write(reinterpret_cast<const char*>(block_buf_.data()),
             static_cast<std::streamsize>(block_buf_.size()));
  os_->seekp(16);
  block_buf_.clear();
  append_le<std::uint64_t>(block_buf_, written_);
  append_le<std::uint64_t>(block_buf_, index_.size());
  os_->write(reinterpret_cast<const char*>(block_buf_.data()), 16);
  os_->seekp(0, std::ios::end);
  os_->flush();
  if (!*os_) throw trace_format_error("trace v3: index write failed");
}

void write_trace_v3(std::ostream& os, const trace& t) {
  // Emit in (ingress, position) order — the stable tie-break
  // trace_ingress_cursor uses — so any input order produces the same file
  // and the same replay as the v1 path.
  std::vector<std::uint32_t> order(t.packets.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return t.packets[a].ingress_time <
                            t.packets[b].ingress_time;
                   });
  bool any_dropped = false;
  bool any_stalled = false;
  for (const auto& r : t.packets) {
    if (r.dropped()) any_dropped = true;
    if (r.stalled()) any_stalled = true;
    if (any_dropped && any_stalled) break;
  }
  trace_v3_writer w(os, t.packets.size(), kTraceV3BlockRecords, any_dropped,
                    any_stalled);
  for (const std::uint32_t i : order) w.append(t.packets[i]);
  w.finish();
}

void save_trace_v3(const std::string& path, const trace& t) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("trace: cannot open " + path);
  write_trace_v3(os, t);
}

trace read_trace_v3(const std::uint8_t* data, std::size_t size) {
  trace_v3_cursor cur(data, size);
  trace t;
  t.packets.reserve(cur.size_hint());
  while (const packet_record* r = cur.next()) t.packets.push_back(*r);
  return t;
}

trace load_trace_v3(const std::string& path) {
  trace_v3_cursor cur(path);
  trace t;
  t.packets.reserve(cur.size_hint());
  while (const packet_record* r = cur.next()) t.packets.push_back(*r);
  return t;
}

// --- v3 cursor ---------------------------------------------------------------

trace_v3_cursor::trace_v3_cursor(const std::string& path,
                                 trace_access access) {
  file_image img = map_trace_file(path, access);
  mapping_ = img.mapping;
  mapping_size_ = img.mapping_size;
  owned_bytes_ = std::move(img.owned);
  data_ = mapping_ != nullptr ? img.data : owned_bytes_.data();
  size_ = img.size;
  validate_header_and_index();
}

trace_v3_cursor::trace_v3_cursor(const std::uint8_t* data, std::size_t size)
    : data_(data), size_(size) {
  validate_header_and_index();
}

trace_v3_cursor::~trace_v3_cursor() {
#if UPS_TRACE_HAVE_MMAP
  if (mapping_ != nullptr) ::munmap(mapping_, mapping_size_);
#endif
}

void trace_v3_cursor::validate_header_and_index() {
  const v3_header_fields h = check_v3_header(data_, size_);
  count_ = h.record_count;
  block_count_ = h.block_count;
  data_offset_ = h.data_offset;
  index_capacity_ = h.index_capacity;
  records_per_block_ = h.records_per_block;
  ncols_ = h.column_count;
  // One pass over the leading index pins down every block's placement
  // before any decode: blocks must tile [data_offset, file end) exactly and
  // carry non-decreasing ingress bounds. After this, seeks can trust any
  // entry without re-checking, and truncation or trailing garbage is caught
  // here rather than mid-replay.
  std::uint64_t end = data_offset_;
  sim::time_ps prev_max = INT64_MIN;
  for (std::uint64_t b = 0; b < block_count_; ++b) {
    const block_bounds e = bounds_at(b);
    if (e.bytes < trace_v3_block_header_bytes(ncols_)) {
      throw trace_format_error("trace v3: block smaller than its header");
    }
    if (e.offset != end) {
      throw trace_format_error("trace v3: index entry out of place");
    }
    if (e.bytes > size_ - e.offset) {  // e.offset <= size_ by induction
      throw trace_format_error("trace v3: block out of bounds");
    }
    if (e.min_ingress > e.max_ingress || e.min_ingress < prev_max) {
      throw trace_format_error("trace v3: block index out of order");
    }
    prev_max = e.max_ingress;
    end = e.offset + e.bytes;
  }
  if (end != size_) {
    throw trace_format_error(
        "trace v3: file size disagrees with the block index");
  }
}

trace_v3_cursor::block_bounds trace_v3_cursor::bounds_at(
    std::uint64_t b) const {
  if (b >= index_capacity_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  const std::uint8_t* e =
      data_ + kTraceV3HeaderBytes + kTraceV3IndexEntryBytes * b;
  block_bounds out;
  out.offset = load_le<std::uint64_t>(e);
  out.bytes = load_le<std::uint64_t>(e + 8);
  out.min_ingress = load_le<std::int64_t>(e + 16);
  out.max_ingress = load_le<std::int64_t>(e + 24);
  return out;
}

std::uint32_t trace_v3_cursor::records_in_block(std::uint64_t b) const {
  if (b >= block_count_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  return load_le<std::uint32_t>(data_ + bounds_at(b).offset);
}

std::array<std::uint32_t, kTraceV3MaxColumnCount>
trace_v3_cursor::column_bytes_at(std::uint64_t b) const {
  if (b >= block_count_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  const std::uint8_t* h = data_ + bounds_at(b).offset;
  // Columns the file does not store read back as zero bytes.
  std::array<std::uint32_t, kTraceV3MaxColumnCount> out{};
  for (std::size_t c = 0; c < ncols_; ++c) {
    out[c] = load_le<std::uint32_t>(h + 24 + 4 * c);
  }
  return out;
}


void trace_v3_cursor::decode_block(std::uint64_t b) {
  v3_block_scratch& sc = scratch_;
  const block_bounds e = bounds_at(b);
  const std::uint8_t* p = data_ + e.offset;
  const std::uint32_t n = load_le<std::uint32_t>(p);
  const std::uint32_t block_bytes = load_le<std::uint32_t>(p + 4);
  const sim::time_ps base = load_le<std::int64_t>(p + 8);
  const sim::time_ps bmax = load_le<std::int64_t>(p + 16);
  if (n == 0 || n > records_per_block_) {
    throw trace_format_error("trace v3: block record count out of range");
  }
  if (block_bytes != e.bytes || base != e.min_ingress ||
      bmax != e.max_ingress) {
    throw trace_format_error(
        "trace v3: block header disagrees with the index");
  }
  std::uint32_t col_bytes[kTraceV3MaxColumnCount] = {};
  std::uint64_t total = trace_v3_block_header_bytes(ncols_);
  for (std::size_t c = 0; c < ncols_; ++c) {
    col_bytes[c] = load_le<std::uint32_t>(p + 24 + 4 * c);
    total += col_bytes[c];
  }
  if (total != e.bytes) {
    throw trace_format_error(
        "trace v3: column sizes disagree with the block size");
  }
  const std::uint8_t* col[kTraceV3MaxColumnCount] = {};
  {
    const std::uint8_t* q = p + trace_v3_block_header_bytes(ncols_);
    for (std::size_t c = 0; c < ncols_; ++c) {
      col[c] = q;
      q += col_bytes[c];
    }
  }
  sc.n = n;
  // resize() reuses capacity — after the first full block no steady-state
  // allocation happens here.
  sc.ingress.resize(n);
  sc.egress.resize(n);
  sc.qdelay.resize(n);
  sc.id.resize(n);
  sc.flow.resize(n);
  sc.fsize.resize(n);
  sc.seq.resize(n);
  sc.psize.resize(n);
  sc.src.resize(n);
  sc.dst.resize(n);
  sc.path_pos.resize(n + 1);
  sc.departs_pos.resize(n + 1);
  if (ncols_ >= kTraceV3DropColumnCount) {
    sc.dropinfo.resize(n);
    sc.drop_time.resize(n);
  }
  if (ncols_ >= kTraceV3StallColumnCount) {
    sc.stallinfo.resize(n);
    sc.stall_time.resize(n);
  }
  // Every column decodes in two passes over the shared raw staging buffer:
  // one batched SWAR sweep that peels the varints (core::get_varints), then
  // one tight transform loop (prefix sums, zigzag, narrowing) the compiler
  // can vectorize. The batch decode enforces the column end; the leftover
  // check catches columns holding more bytes than their values consumed.
  const auto ensure_raw = [&sc](std::size_t count) -> std::uint64_t* {
    if (sc.raw.size() < count) sc.raw.resize(count);
    return sc.raw.data();
  };
  const auto decode_col = [&](std::size_t c, std::uint64_t* out,
                              std::size_t count) {
    const std::uint8_t* s = col[c];
    const std::uint8_t* send = s + col_bytes[c];
    get_column(s, send, out, count, "trace v3");
    if (s != send) {
      throw trace_format_error(std::string("trace v3: ") +
                               kTraceV3ColumnNames[c] +
                               " column has leftover bytes");
    }
  };
  std::uint64_t* raw = ensure_raw(n);
  {
    decode_col(kColIngress, raw, n);
    if (raw[0] != 0) {
      throw trace_format_error("trace v3: first ingress delta must be zero");
    }
    std::uint64_t cum = static_cast<std::uint64_t>(base);
    sim::time_ps prev = INT64_MIN;
    for (std::uint32_t i = 0; i < n; ++i) {
      cum += raw[i];
      const sim::time_ps t = static_cast<sim::time_ps>(cum);
      if (i != 0 && t < prev) {
        throw trace_format_error(
            "trace v3: ingress not monotone within a block");
      }
      sc.ingress[i] = t;
      prev = t;
    }
    if (sc.ingress[n - 1] != bmax) {
      throw trace_format_error(
          "trace v3: last ingress disagrees with the block bound");
    }
  }
  decode_col(kColEgress, raw, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sc.egress[i] = wrap_add(sc.ingress[i], unzigzag(raw[i]));
  }
  decode_col(kColId, raw, n);
  {
    std::uint64_t cum = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      cum += static_cast<std::uint64_t>(unzigzag(raw[i]));
      sc.id[i] = cum;
    }
  }
  decode_col(kColFlow, raw, n);
  {
    std::uint64_t cum = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      cum += static_cast<std::uint64_t>(unzigzag(raw[i]));
      sc.flow[i] = cum;
    }
  }
  decode_col(kColSeq, raw, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sc.seq[i] = narrow_u32(raw[i], "seq");
  }
  decode_col(kColSize, raw, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sc.psize[i] = narrow_u32(raw[i], "size");
  }
  decode_col(kColSrc, raw, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sc.src[i] = narrow_node(unzigzag(raw[i]), "src");
  }
  decode_col(kColDst, raw, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sc.dst[i] = narrow_node(unzigzag(raw[i]), "dst");
  }
  decode_col(kColQdelay, raw, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sc.qdelay[i] = unzigzag(raw[i]);
  }
  decode_col(kColFlowSize, raw, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sc.fsize[i] = raw[i];
  }
  // Length columns bound the data columns before anything is sized: every
  // element needs at least one byte, so a corrupt length claiming more
  // elements than its data column holds bytes is rejected here — never
  // turned into a resize (an allocation bomb) that fails later.
  {
    const std::uint8_t* s = col[kColPathLen];
    const std::uint8_t* send = s + col_bytes[kColPathLen];
    // Hop-free traces (the default recording mode) store n zero plens and
    // an empty path column; one vectorized scan replaces n varint decodes.
    if (col_bytes[kColPath] == 0 && col_bytes[kColPathLen] == n &&
        std::all_of(s, send, [](std::uint8_t v) { return v == 0; })) {
      std::fill(sc.path_pos.begin(), sc.path_pos.end(), 0u);
      sc.path_flat.clear();
    } else {
      decode_col(kColPathLen, raw, n);
      std::uint64_t tot = 0;
      sc.path_pos[0] = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        tot += raw[i];
        if (tot > col_bytes[kColPath]) {
          throw trace_format_error(
              "trace v3: path lengths exceed the path column");
        }
        sc.path_pos[i + 1] = static_cast<std::uint32_t>(tot);
      }
      sc.path_flat.resize(static_cast<std::size_t>(tot));
      raw = ensure_raw(static_cast<std::size_t>(tot));
      decode_col(kColPath, raw, static_cast<std::size_t>(tot));
      for (std::size_t k = 0; k < sc.path_flat.size(); ++k) {
        sc.path_flat[k] = narrow_node(unzigzag(raw[k]), "hop");
      }
    }
  }
  {
    const std::uint8_t* s = col[kColDepartsLen];
    const std::uint8_t* send = s + col_bytes[kColDepartsLen];
    if (col_bytes[kColDeparts] == 0 && col_bytes[kColDepartsLen] == n &&
        std::all_of(s, send, [](std::uint8_t v) { return v == 0; })) {
      std::fill(sc.departs_pos.begin(), sc.departs_pos.end(), 0u);
      sc.departs_flat.clear();
    } else {
      decode_col(kColDepartsLen, raw, n);
      std::uint64_t tot = 0;
      sc.departs_pos[0] = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        tot += raw[i];
        if (tot > col_bytes[kColDeparts]) {
          throw trace_format_error(
              "trace v3: departs lengths exceed the departs column");
        }
        sc.departs_pos[i + 1] = static_cast<std::uint32_t>(tot);
      }
      sc.departs_flat.resize(static_cast<std::size_t>(tot));
      raw = ensure_raw(static_cast<std::size_t>(tot));
      decode_col(kColDeparts, raw, static_cast<std::size_t>(tot));
      // Each record's departs are a delta chain seeded from its ingress.
      for (std::uint32_t i = 0; i < n; ++i) {
        sim::time_ps prev = sc.ingress[i];
        for (std::uint32_t j = sc.departs_pos[i]; j < sc.departs_pos[i + 1];
             ++j) {
          prev = wrap_add(prev, unzigzag(raw[j]));
          sc.departs_flat[j] = prev;
        }
      }
    }
  }
  if (ncols_ >= kTraceV3DropColumnCount) {
    decode_col(kColDropInfo, raw, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      sc.dropinfo[i] = narrow_u32(raw[i], "dropinfo");
    }
    decode_col(kColDropTime, raw, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      sc.drop_time[i] = wrap_add(sc.ingress[i], unzigzag(raw[i]));
    }
  }
  if (ncols_ >= kTraceV3StallColumnCount) {
    decode_col(kColStallInfo, raw, n);
    for (std::uint32_t i = 0; i < n; ++i) sc.stallinfo[i] = raw[i];
    decode_col(kColStallTime, raw, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      sc.stall_time[i] = static_cast<sim::time_ps>(raw[i]);
    }
  }
  // Assemble the whole block once; next()/next_run() then serve pointers
  // into the records with no per-record copying. Never shrink records — the
  // final short block would otherwise destroy warmed slot capacities and a
  // post-seek re-drain would have to reallocate them.
  if (sc.records.size() < n) sc.records.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) assemble(sc, i, sc.records[i]);
}

void trace_v3_cursor::assemble(const v3_block_scratch& sc, std::uint32_t i,
                               packet_record& r) const {
  r.id = sc.id[i];
  r.flow_id = sc.flow[i];
  r.seq_in_flow = sc.seq[i];
  r.size_bytes = sc.psize[i];
  r.src_host = sc.src[i];
  r.dst_host = sc.dst[i];
  r.ingress_time = sc.ingress[i];
  r.egress_time = sc.egress[i];
  r.queueing_delay = sc.qdelay[i];
  r.flow_size_bytes = sc.fsize[i];
  // assign() reuses the slot's vector capacity — no steady-state allocation.
  r.path.assign(sc.path_flat.begin() + sc.path_pos[i],
                sc.path_flat.begin() + sc.path_pos[i + 1]);
  r.hop_departs.assign(sc.departs_flat.begin() + sc.departs_pos[i],
                       sc.departs_flat.begin() + sc.departs_pos[i + 1]);
  r.drop_hop = -1;
  r.dropped_kind = drop_kind::buffer;
  r.drop_time = -1;
  r.stall_hop = -1;
  r.stall_count = 0;
  r.stall_time = 0;
  if (ncols_ >= kTraceV3DropColumnCount && sc.dropinfo[i] != 0) {
    const std::uint32_t info = sc.dropinfo[i];
    const std::uint32_t kind = info & 3;
    const std::uint32_t hop = (info >> 2) - 1;
    if (kind > 1 || hop >= r.path.size()) {
      throw trace_format_error("trace v3: malformed dropinfo value");
    }
    r.drop_hop = static_cast<std::int32_t>(hop);
    r.dropped_kind = static_cast<drop_kind>(kind);
    r.drop_time = sc.drop_time[i];
  }
  if (ncols_ >= kTraceV3StallColumnCount && sc.stallinfo[i] != 0) {
    const std::uint64_t info = sc.stallinfo[i];
    const std::uint64_t hop = (info & 0xFFFF) - 1;
    const std::uint64_t count = info >> 16;
    if (hop >= r.path.size() || count == 0 || count > UINT32_MAX ||
        sc.stall_time[i] < 0) {
      throw trace_format_error("trace v3: malformed stallinfo value");
    }
    r.stall_hop = static_cast<std::int32_t>(hop);
    r.stall_count = static_cast<std::uint32_t>(count);
    r.stall_time = sc.stall_time[i];
  }
}

bool trace_v3_cursor::ensure_block() {
  if (block_pos_ < block_n_) return true;
  if (next_block_ >= block_count_) return false;
  decode_block(next_block_);
  block_n_ = scratch_.n;
  block_pos_ = 0;
  cur_block_ = next_block_++;
  return true;
}

const packet_record* trace_v3_cursor::next() {
  if (!ensure_block()) {
    if (!seeked_ && served_ != count_) {
      throw trace_format_error(
          "trace v3: blocks disagree with the declared record count");
    }
    return nullptr;
  }
  ++served_;
  return &scratch_.records[block_pos_++];
}

std::size_t trace_v3_cursor::next_run(
    std::vector<const packet_record*>& out) {
  if (!ensure_block()) {
    if (!seeked_ && served_ != count_) {
      throw trace_format_error(
          "trace v3: blocks disagree with the declared record count");
    }
    return 0;
  }
  // Run detection is an array scan over the decoded ingress column. Almost
  // every run ends inside the current block (or the file); those are served
  // as pointers straight into the block's records. Whether a block-final
  // run continues is read off the next block's index bound — no speculative
  // block load.
  const sim::time_ps t = scratch_.ingress[block_pos_];
  std::uint32_t j = block_pos_ + 1;
  while (j < block_n_ && scratch_.ingress[j] == t) ++j;
  if (j < block_n_ || next_block_ >= block_count_ ||
      bounds_at(next_block_).min_ingress != t) {
    const std::size_t n = j - block_pos_;
    for (std::uint32_t i = block_pos_; i < j; ++i) {
      out.push_back(&scratch_.records[i]);
    }
    served_ += n;
    block_pos_ = j;
    return n;
  }
  // The run crosses into the next block: loading it overwrites the
  // per-block arrays, so this tail is copied into slots_ instead.
  std::size_t n = 0;
  for (;;) {
    if (n == slots_.size()) slots_.emplace_back();
    slots_[n] = scratch_.records[block_pos_++];
    ++n;
    ++served_;
    if (!ensure_block()) break;
    if (scratch_.ingress[block_pos_] != t) break;
  }
  // Publish only after the run is fully assembled: growing slots_ mid-run
  // may reallocate and would dangle anything pushed earlier.
  for (std::size_t i = 0; i < n; ++i) out.push_back(&slots_[i]);
  return n;
}

std::uint64_t trace_v3_cursor::current_block() const noexcept {
  return block_pos_ < block_n_ ? cur_block_ : next_block_;
}

void trace_v3_cursor::seek_to_block(std::uint64_t b) {
  if (b > block_count_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  seeked_ = true;
  served_ = 0;
  next_block_ = b;
  cur_block_ = UINT64_MAX;
  block_n_ = 0;
  block_pos_ = 0;
}

void trace_v3_cursor::seek_lower_bound(sim::time_ps t) {
  // Binary search the index bounds for the first block whose max ingress
  // reaches t, then skip within it. Touches header + index pages plus the
  // one target block — never the tail.
  std::uint64_t lo = 0, hi = block_count_;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bounds_at(mid).max_ingress < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  seek_to_block(lo);
  if (!ensure_block()) return;  // t is past the last record
  while (block_pos_ < block_n_ && scratch_.ingress[block_pos_] < t) {
    ++block_pos_;
  }
}

}  // namespace ups::net
