#include "manifest/hls.h"

#include <cmath>
#include <limits>
#include <map>

#include "common/error.h"
#include "common/strings.h"

namespace vodx::manifest {

namespace {

/// Parses an HLS attribute list: comma-separated KEY=value pairs where values
/// may be quoted strings containing commas.
std::map<std::string, std::string> parse_attr_list(std::string_view text) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eq = text.find('=', pos);
    if (eq == std::string_view::npos) {
      throw ParseError("HLS attribute without '=': " + std::string(text));
    }
    std::string key(trim(text.substr(pos, eq - pos)));
    std::size_t value_start = eq + 1;
    std::string value;
    if (value_start < text.size() && text[value_start] == '"') {
      std::size_t end_quote = text.find('"', value_start + 1);
      if (end_quote == std::string_view::npos) {
        throw ParseError("unterminated quoted HLS attribute");
      }
      value = std::string(text.substr(value_start + 1, end_quote - value_start - 1));
      pos = end_quote + 1;
      if (pos < text.size() && text[pos] == ',') ++pos;
    } else {
      std::size_t comma = text.find(',', value_start);
      if (comma == std::string_view::npos) comma = text.size();
      value = std::string(trim(text.substr(value_start, comma - value_start)));
      pos = comma + 1;
    }
    out[key] = value;
  }
  return out;
}

}  // namespace

std::string HlsMasterPlaylist::serialize() const {
  std::string out = "#EXTM3U\n#EXT-X-VERSION:4\n";
  for (const HlsVariant& v : variants) {
    out += format("#EXT-X-STREAM-INF:BANDWIDTH=%lld",
                  static_cast<long long>(std::llround(v.bandwidth)));
    if (v.average_bandwidth) {
      out += format(",AVERAGE-BANDWIDTH=%lld",
                    static_cast<long long>(std::llround(*v.average_bandwidth)));
    }
    if (v.resolution.width > 0) {
      out += format(",RESOLUTION=%dx%d", v.resolution.width,
                    v.resolution.height);
    }
    out += "\n" + v.uri + "\n";
  }
  return out;
}

HlsMasterPlaylist HlsMasterPlaylist::parse(std::string_view text) {
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty() || trim(lines[0]) != "#EXTM3U") {
    throw ParseError("HLS playlist must start with #EXTM3U");
  }
  HlsMasterPlaylist playlist;
  std::optional<HlsVariant> pending;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = trim(lines[i]);
    if (line.empty()) continue;
    if (starts_with(line, "#EXT-X-STREAM-INF:")) {
      auto attrs = parse_attr_list(line.substr(18));
      HlsVariant v;
      auto it = attrs.find("BANDWIDTH");
      if (it == attrs.end()) {
        throw ParseError("EXT-X-STREAM-INF missing BANDWIDTH");
      }
      v.bandwidth = static_cast<Bps>(parse_int(it->second));
      if (auto avg = attrs.find("AVERAGE-BANDWIDTH"); avg != attrs.end()) {
        v.average_bandwidth = static_cast<Bps>(parse_int(avg->second));
      }
      if (auto res = attrs.find("RESOLUTION"); res != attrs.end()) {
        std::vector<std::string> parts = split(res->second, 'x');
        if (parts.size() != 2) throw ParseError("bad RESOLUTION");
        v.resolution.width = static_cast<int>(parse_int(parts[0]));
        v.resolution.height = static_cast<int>(parse_int(parts[1]));
      }
      pending = v;
    } else if (!starts_with(line, "#")) {
      if (!pending) throw ParseError("variant URI without EXT-X-STREAM-INF");
      pending->uri = std::string(line);
      playlist.variants.push_back(*pending);
      pending.reset();
    }
  }
  if (pending) throw ParseError("EXT-X-STREAM-INF without URI");
  return playlist;
}

std::string HlsMediaPlaylist::serialize() const {
  std::string out = "#EXTM3U\n#EXT-X-VERSION:4\n";
  out += format("#EXT-X-TARGETDURATION:%d",
                static_cast<int>(std::ceil(target_duration)));
  out += "\n#EXT-X-MEDIA-SEQUENCE:0\n#EXT-X-PLAYLIST-TYPE:VOD\n";
  for (const HlsMediaSegment& s : segments) {
    out += format("#EXTINF:%.3f,\n", s.duration);
    if (s.byterange) {
      out += format("#EXT-X-BYTERANGE:%lld@%lld\n",
                    static_cast<long long>(s.byterange->length()),
                    static_cast<long long>(s.byterange->first));
    }
    out += s.uri + "\n";
  }
  out += "#EXT-X-ENDLIST\n";
  return out;
}

HlsMediaPlaylist HlsMediaPlaylist::parse(std::string_view text) {
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty() || trim(lines[0]) != "#EXTM3U") {
    throw ParseError("HLS playlist must start with #EXTM3U");
  }
  HlsMediaPlaylist playlist;
  std::optional<HlsMediaSegment> pending;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = trim(lines[i]);
    if (line.empty()) continue;
    if (starts_with(line, "#EXT-X-TARGETDURATION:")) {
      playlist.target_duration = parse_double(line.substr(22));
    } else if (starts_with(line, "#EXTINF:")) {
      std::string_view rest = line.substr(8);
      std::size_t comma = rest.find(',');
      if (comma != std::string_view::npos) rest = rest.substr(0, comma);
      HlsMediaSegment segment;
      segment.duration = parse_double(rest);
      pending = segment;
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
      pending->uri = std::string(line);
      playlist.segments.push_back(*pending);
      pending.reset();
    }
  }
  if (pending) throw ParseError("EXTINF without URI");
  return playlist;
}

}  // namespace vodx::manifest
