// The pieces of the byte codec that more than one layer reads through:
// section access for the index file's decoders (storage/index_io.cc and
// the api layer's kSpec section), and the one graph encoding that index
// files and request frames (net/protocol.h) share.

#ifndef PIGEONRING_STORAGE_CODEC_H_
#define PIGEONRING_STORAGE_CODEC_H_

#include <string>
#include <utility>

#include "common/status.h"
#include "graphed/graph.h"
#include "storage/bytes.h"
#include "storage/index_file.h"

namespace pigeonring::storage {

/// kDataLoss "index section <id> corrupt: <what>".
Status SectionCorrupt(SectionId id, const std::string& what);

/// Looks up section `id` (kDataLoss when absent) and runs
/// `decode(ByteReader&) -> Status` over its payload. A decode that succeeds
/// must also have consumed every byte without overrunning.
template <typename Decode>
Status ReadSection(const IndexFileReader& file, SectionId id,
                   Decode&& decode) {
  auto section = file.Section(id);
  if (!section.ok()) return section.status();
  ByteReader reader = *section;
  Status s = std::forward<Decode>(decode)(reader);
  if (!s.ok()) return s;
  if (!reader.AtEnd()) {
    return SectionCorrupt(id, "malformed encoding (overrun or trailing bytes)");
  }
  return Status::Ok();
}

/// One graph: its vertex labels (an i32 vector), a u32 edge count, then
/// each edge as i32 u, v, label.
void EncodeGraph(ByteWriter& w, const graphed::Graph& g);

/// Decodes EncodeGraph's form into `g`. Returns false on a truncated
/// encoding, an edge count above remaining / 12, an endpoint outside the
/// labels, a self-loop or a repeated edge; edges are checked before they
/// are added, so hostile bytes never reach Graph::AddEdge's checks.
bool DecodeGraph(ByteReader& r, graphed::Graph* g);

}  // namespace pigeonring::storage

#endif  // PIGEONRING_STORAGE_CODEC_H_
