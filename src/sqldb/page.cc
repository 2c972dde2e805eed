#include "sqldb/page.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace datalinks::sqldb {

namespace {

// Slice-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
// t[0] is the classic bytewise table, and t[k][i] is the CRC of byte i
// followed by k zero bytes, so eight table lookups consume eight bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Little-endian fixed-width integers for page headers and slot entries
// (in-memory page images; byte order only needs to be self-consistent).
void PutU16At(std::string* s, size_t off, uint16_t v) {
  (*s)[off] = static_cast<char>(v & 0xff);
  (*s)[off + 1] = static_cast<char>((v >> 8) & 0xff);
}

uint16_t GetU16At(const std::string& s, size_t off) {
  return static_cast<uint16_t>(static_cast<uint8_t>(s[off]) |
                               (static_cast<uint8_t>(s[off + 1]) << 8));
}

void PutU32At(std::string* s, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*s)[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint32_t GetU32At(const std::string& s, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(s[off + i])) << (8 * i);
  }
  return v;
}

void PutU64At(std::string* s, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*s)[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint64_t GetU64At(const std::string& s, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(s[off + i])) << (8 * i);
  }
  return v;
}

// Big-endian u64 append: the codec relies on lexicographic == numeric order.
void AppendBe64(std::string* out, uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// Header field offsets.
constexpr size_t kOffLsn = 0;
constexpr size_t kOffNSlots = 8;
constexpr size_t kOffType = 10;
constexpr size_t kOffLower = 12;
constexpr size_t kOffUpper = 16;
constexpr size_t kOffFrag = 20;
constexpr size_t kOffOwner = 24;

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void EncodeOrderedKey(const Key& key, std::string* out) {
  for (const Value& v : key) {
    out->push_back(static_cast<char>(static_cast<uint8_t>(v.type()) + 1));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        AppendBe64(out, static_cast<uint64_t>(v.as_int()) ^
                            (1ULL << 63));
        break;
      case ValueType::kString: {
        for (char c : v.as_string()) {
          if (c == '\0') {
            out->push_back('\0');
            out->push_back(static_cast<char>(0xFF));
          } else {
            out->push_back(c);
          }
        }
        out->push_back('\0');
        out->push_back(static_cast<char>(0x01));
        break;
      }
      case ValueType::kBool:
        out->push_back(v.as_bool() ? '\x01' : '\x00');
        break;
      case ValueType::kDouble: {
        uint64_t bits;
        double d = v.as_double();
        std::memcpy(&bits, &d, sizeof(bits));
        // Negatives invert wholly (reversing their magnitude order);
        // non-negatives just get the sign bit set, placing them above.
        bits = (bits & (1ULL << 63)) ? ~bits : bits | (1ULL << 63);
        AppendBe64(out, bits);
        break;
      }
    }
  }
  out->push_back('\0');  // key terminator: strict prefixes sort lower
}

std::string EncodeOrderedKey(const Key& key) {
  std::string out;
  EncodeOrderedKey(key, &out);
  return out;
}

Result<Key> DecodeOrderedKey(std::string_view in, size_t* pos) {
  Key key;
  auto need = [&](size_t n) { return *pos + n <= in.size(); };
  while (true) {
    if (!need(1)) return Status::Corruption("ordered key: truncated");
    uint8_t tag = static_cast<uint8_t>(in[(*pos)++]);
    if (tag == 0) return key;  // terminator
    if (tag > 5) return Status::Corruption("ordered key: bad tag");
    ValueType type = static_cast<ValueType>(tag - 1);
    switch (type) {
      case ValueType::kNull:
        key.push_back(Value());
        break;
      case ValueType::kInt: {
        if (!need(8)) return Status::Corruption("ordered key: truncated int");
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
          v = (v << 8) | static_cast<uint8_t>(in[(*pos)++]);
        }
        key.push_back(Value(static_cast<int64_t>(v ^ (1ULL << 63))));
        break;
      }
      case ValueType::kString: {
        std::string s;
        while (true) {
          if (!need(1)) return Status::Corruption("ordered key: unterminated");
          char c = in[(*pos)++];
          if (c != '\0') {
            s.push_back(c);
            continue;
          }
          if (!need(1)) return Status::Corruption("ordered key: unterminated");
          uint8_t esc = static_cast<uint8_t>(in[(*pos)++]);
          if (esc == 0x01) break;          // end of string
          if (esc == 0xFF) s.push_back('\0');
          else return Status::Corruption("ordered key: bad escape");
        }
        key.push_back(Value(std::move(s)));
        break;
      }
      case ValueType::kBool: {
        if (!need(1)) return Status::Corruption("ordered key: truncated bool");
        key.push_back(Value(in[(*pos)++] != '\0'));
        break;
      }
      case ValueType::kDouble: {
        if (!need(8)) return Status::Corruption("ordered key: truncated dbl");
        uint64_t bits = 0;
        for (int i = 0; i < 8; ++i) {
          bits = (bits << 8) | static_cast<uint8_t>(in[(*pos)++]);
        }
        bits = (bits & (1ULL << 63)) ? bits & ~(1ULL << 63) : ~bits;
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        key.push_back(Value(d));
        break;
      }
    }
  }
}

size_t MaxOrderedKeyBytes(size_t page_size) {
  // An index node must hold at least 8 worst-case entries (key + rid +
  // child + slot bookkeeping) to keep the tree from degenerating.
  size_t budget = (page_size - kPageHeaderSize) / 8;
  return budget > 32 ? budget - 32 : 32;
}

namespace page {

void Init(std::string* page, size_t page_size, uint8_t type, uint64_t owner) {
  page->assign(page_size, '\0');
  (*page)[kOffType] = static_cast<char>(type);
  PutU32At(page, kOffLower, static_cast<uint32_t>(kPageHeaderSize));
  PutU32At(page, kOffUpper, static_cast<uint32_t>(page_size));
  PutU64At(page, kOffOwner, owner);
}

Lsn GetLsn(const std::string& page) { return GetU64At(page, kOffLsn); }

void SetLsn(std::string* page, Lsn lsn) {
  if (lsn > GetLsn(*page)) PutU64At(page, kOffLsn, lsn);
}

uint8_t GetType(const std::string& page) {
  return static_cast<uint8_t>(page[kOffType]);
}

uint16_t SlotCount(const std::string& page) {
  return GetU16At(page, kOffNSlots);
}

uint64_t GetOwner(const std::string& page) { return GetU64At(page, kOffOwner); }

}  // namespace page

namespace heap_page {

namespace {

size_t SlotOff(int slot) { return kPageHeaderSize + kSlotSize * slot; }

// Rewrites payloads compactly at the page end, reclaiming fragmentation.
void Compact(std::string* page) {
  const uint16_t n = page::SlotCount(*page);
  std::vector<std::pair<int, std::string>> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    size_t so = SlotOff(i);
    uint16_t off = GetU16At(*page, so + 8);
    uint16_t len = GetU16At(*page, so + 10);
    rows.emplace_back(i, page->substr(off, len));
  }
  uint32_t upper = static_cast<uint32_t>(page->size());
  for (auto& [i, bytes] : rows) {
    upper -= static_cast<uint32_t>(bytes.size());
    page->replace(upper, bytes.size(), bytes);
    PutU16At(page, SlotOff(i) + 8, static_cast<uint16_t>(upper));
  }
  PutU32At(page, kOffUpper, upper);
  PutU32At(page, kOffFrag, 0);
}

}  // namespace

size_t Capacity(size_t page_size) {
  return page_size - kPageHeaderSize - kSlotSize;
}

size_t FreeBytes(const std::string& page) {
  uint32_t lower = GetU32At(page, kOffLower);
  uint32_t upper = GetU32At(page, kOffUpper);
  return (upper - lower) + GetU32At(page, kOffFrag);
}

bool CanFit(const std::string& page, size_t len) {
  return FreeBytes(page) >= len + kSlotSize;
}

int FindSlot(const std::string& page, RowId rid) {
  const uint16_t n = page::SlotCount(page);
  for (int i = 0; i < n; ++i) {
    if (GetU64At(page, SlotOff(i)) == rid) return i;
  }
  return -1;
}

RowId SlotRid(const std::string& page, int slot) {
  return GetU64At(page, SlotOff(slot));
}

std::string_view SlotPayload(const std::string& page, int slot) {
  size_t so = SlotOff(slot);
  uint16_t off = GetU16At(page, so + 8);
  uint16_t len = GetU16At(page, so + 10);
  return std::string_view(page).substr(off, len);
}

void InsertRow(std::string* page, RowId rid, std::string_view payload) {
  assert(FindSlot(*page, rid) == -1);
  assert(CanFit(*page, payload.size()));
  uint32_t lower = GetU32At(*page, kOffLower);
  uint32_t upper = GetU32At(*page, kOffUpper);
  if (upper - lower < payload.size() + kSlotSize) {
    Compact(page);
    lower = GetU32At(*page, kOffLower);
    upper = GetU32At(*page, kOffUpper);
  }
  assert(upper - lower >= payload.size() + kSlotSize);
  upper -= static_cast<uint32_t>(payload.size());
  page->replace(upper, payload.size(), payload.data(), payload.size());
  const uint16_t n = page::SlotCount(*page);
  size_t so = SlotOff(n);
  PutU64At(page, so, rid);
  PutU16At(page, so + 8, static_cast<uint16_t>(upper));
  PutU16At(page, so + 10, static_cast<uint16_t>(payload.size()));
  PutU16At(page, kOffNSlots, static_cast<uint16_t>(n + 1));
  PutU32At(page, kOffLower, static_cast<uint32_t>(so + kSlotSize));
  PutU32At(page, kOffUpper, upper);
}

void RemoveSlot(std::string* page, int slot) {
  const uint16_t n = page::SlotCount(*page);
  assert(slot >= 0 && slot < n);
  uint16_t len = GetU16At(*page, SlotOff(slot) + 10);
  PutU32At(page, kOffFrag, GetU32At(*page, kOffFrag) + len);
  // Move the last slot entry into the vacated directory position.
  if (slot != n - 1) {
    for (size_t b = 0; b < kSlotSize; ++b) {
      (*page)[SlotOff(slot) + b] = (*page)[SlotOff(n - 1) + b];
    }
  }
  PutU16At(page, kOffNSlots, static_cast<uint16_t>(n - 1));
  PutU32At(page, kOffLower, static_cast<uint32_t>(SlotOff(n - 1)));
}

void ForEachRow(const std::string& page,
                const std::function<void(RowId, std::string_view)>& fn) {
  const uint16_t n = page::SlotCount(page);
  for (int i = 0; i < n; ++i) {
    fn(SlotRid(page, i), SlotPayload(page, i));
  }
}

}  // namespace heap_page

}  // namespace datalinks::sqldb
