#include "manifest/hls.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/strings.h"

namespace vodx::manifest {

namespace {

/// Calls `visit(key, value)` for each pair of an HLS attribute list:
/// comma-separated KEY=value pairs where values may be quoted strings
/// containing commas.
template <typename Visit>
void parse_attr_list(std::string_view text, const Visit& visit) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eq = text.find('=', pos);
    if (eq == std::string_view::npos) {
      throw ParseError("HLS attribute without '=': " + std::string(text));
    }
    const std::string_view key = trim(text.substr(pos, eq - pos));
    std::size_t value_start = eq + 1;
    std::string_view value;
    if (value_start < text.size() && text[value_start] == '"') {
      std::size_t end_quote = text.find('"', value_start + 1);
      if (end_quote == std::string_view::npos) {
        throw ParseError("unterminated quoted HLS attribute");
      }
      value = text.substr(value_start + 1, end_quote - value_start - 1);
      pos = end_quote + 1;
      if (pos < text.size() && text[pos] == ',') ++pos;
    } else {
      std::size_t comma = text.find(',', value_start);
      if (comma == std::string_view::npos) comma = text.size();
      value = trim(text.substr(value_start, comma - value_start));
      pos = comma + 1;
    }
    visit(key, value);
  }
}

/// The text after a playlist's "#EXTM3U" header line; throws ParseError
/// when the first line is not that header.
std::string_view playlist_body(std::string_view text) {
  if (text.empty() || trim(next_line(text)) != "#EXTM3U") {
    throw ParseError("HLS playlist must start with #EXTM3U");
  }
  return text;
}

}  // namespace

std::string HlsMasterPlaylist::serialize() const {
  std::string out = "#EXTM3U\n#EXT-X-VERSION:4\n";
  for (const HlsVariant& v : variants) {
    out += "#EXT-X-STREAM-INF:BANDWIDTH=";
    append_int(out, std::llround(v.bandwidth));
    if (v.average_bandwidth) {
      out += ",AVERAGE-BANDWIDTH=";
      append_int(out, std::llround(*v.average_bandwidth));
    }
    if (v.resolution.width > 0) {
      out += ",RESOLUTION=";
      append_int(out, v.resolution.width);
      out += 'x';
      append_int(out, v.resolution.height);
    }
    out += '\n';
    out += v.uri;
    out += '\n';
  }
  return out;
}

HlsMasterPlaylist HlsMasterPlaylist::parse(std::string_view text) {
  HlsMasterPlaylist playlist;
  std::optional<HlsVariant> pending;
  for (std::string_view lines = playlist_body(text); !lines.empty();) {
    std::string_view line = trim(next_line(lines));
    if (line.empty()) continue;
    if (starts_with(line, "#EXT-X-STREAM-INF:")) {
      // A key given twice counts with its last value.
      std::optional<std::string_view> bandwidth, average, resolution;
      parse_attr_list(line.substr(18), [&](std::string_view key,
                                           std::string_view value) {
        if (key == "BANDWIDTH") bandwidth = value;
        if (key == "AVERAGE-BANDWIDTH") average = value;
        if (key == "RESOLUTION") resolution = value;
      });
      if (!bandwidth) throw ParseError("EXT-X-STREAM-INF missing BANDWIDTH");
      HlsVariant v;
      v.bandwidth = static_cast<Bps>(parse_int(*bandwidth));
      if (average) v.average_bandwidth = static_cast<Bps>(parse_int(*average));
      if (resolution) {
        const std::size_t x = resolution->find('x');
        if (x == std::string_view::npos ||
            resolution->find('x', x + 1) != std::string_view::npos) {
          throw ParseError("bad RESOLUTION");
        }
        v.resolution.width =
            static_cast<int>(parse_int(resolution->substr(0, x)));
        v.resolution.height =
            static_cast<int>(parse_int(resolution->substr(x + 1)));
      }
      pending = std::move(v);
    } else if (!starts_with(line, "#")) {
      if (!pending) throw ParseError("variant URI without EXT-X-STREAM-INF");
      pending->uri = line;
      playlist.variants.push_back(std::move(*pending));
      pending.reset();
    }
  }
  if (pending) throw ParseError("EXT-X-STREAM-INF without URI");
  return playlist;
}

std::string HlsMediaPlaylist::serialize() const {
  std::string out;
  out.reserve(128 + segments.size() * 48);
  out += "#EXTM3U\n#EXT-X-VERSION:4\n#EXT-X-TARGETDURATION:";
  append_int(out, static_cast<int>(std::ceil(target_duration)));
  out += "\n#EXT-X-MEDIA-SEQUENCE:0\n#EXT-X-PLAYLIST-TYPE:VOD\n";
  for (const HlsMediaSegment& s : segments) {
    out += "#EXTINF:";
    append_double(out, s.duration, std::chars_format::fixed, 3);
    out += ",\n";
    if (s.byterange) {
      out += "#EXT-X-BYTERANGE:";
      append_int(out, s.byterange->length());
      out += '@';
      append_int(out, s.byterange->first);
      out += '\n';
    }
    out += s.uri;
    out += '\n';
  }
  out += "#EXT-X-ENDLIST\n";
  return out;
}

HlsMediaPlaylist HlsMediaPlaylist::parse(std::string_view text) {
  HlsMediaPlaylist playlist;
  // A segment takes at least two lines (EXTINF and its URI).
  playlist.segments.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') / 2));
  std::optional<HlsMediaSegment> pending;
  for (std::string_view lines = playlist_body(text); !lines.empty();) {
    std::string_view line = trim(next_line(lines));
    if (line.empty()) continue;
    if (starts_with(line, "#EXT-X-TARGETDURATION:")) {
      playlist.target_duration = parse_double(line.substr(22));
    } else if (starts_with(line, "#EXTINF:")) {
      std::string_view rest = line.substr(8);
      std::size_t comma = rest.find(',');
      if (comma != std::string_view::npos) rest = rest.substr(0, comma);
      HlsMediaSegment segment;
      segment.duration = parse_double(rest);
      pending = std::move(segment);
    } else if (starts_with(line, "#EXT-X-BYTERANGE:")) {
      if (!pending) throw ParseError("EXT-X-BYTERANGE without EXTINF");
      std::string_view rest = line.substr(17);
      std::size_t at = rest.find('@');
      if (at == std::string_view::npos) {
        throw ParseError("EXT-X-BYTERANGE needs length@offset");
      }
      const Bytes length = parse_int(rest.substr(0, at));
      const Bytes offset = parse_int(rest.substr(at + 1));
      if (length <= 0 || offset < 0 ||
          length > std::numeric_limits<Bytes>::max() - offset) {
        throw ParseError("invalid EXT-X-BYTERANGE: " + std::string(rest));
      }
      pending->byterange = ByteRange{offset, offset + length - 1};
    } else if (line == "#EXT-X-ENDLIST") {
      break;
    } else if (!starts_with(line, "#")) {
      if (!pending) throw ParseError("segment URI without EXTINF");
      pending->uri = line;
      playlist.segments.push_back(std::move(*pending));
      pending.reset();
    }
  }
  if (pending) throw ParseError("EXTINF without URI");
  return playlist;
}

}  // namespace vodx::manifest
