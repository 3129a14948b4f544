#include "manifest/smooth.h"

#include <cmath>

#include "common/error.h"
#include "common/strings.h"
#include "manifest/xml.h"

namespace vodx::manifest {

namespace {

std::uint64_t to_ticks(Seconds seconds) {
  return static_cast<std::uint64_t>(
      std::llround(seconds * static_cast<double>(kSmoothTimescale)));
}

}  // namespace

void SmoothStreamIndex::fragment_url(Bps bitrate, std::uint64_t start_ticks,
                                     std::string& out) const {
  constexpr std::string_view kBitrate = "{bitrate}";
  constexpr std::string_view kStartTime = "{start time}";
  out.clear();
  std::string_view rest = url_template;
  while (true) {
    const std::size_t pos = rest.find('{');
    out += rest.substr(0, pos);
    if (pos == std::string_view::npos) return;
    rest.remove_prefix(pos);
    if (starts_with(rest, kBitrate)) {
      append_int(out, std::llround(bitrate));
      rest.remove_prefix(kBitrate.size());
    } else if (starts_with(rest, kStartTime)) {
      append_int(out, start_ticks);
      rest.remove_prefix(kStartTime.size());
    } else {
      out += '{';
      rest.remove_prefix(1);
    }
  }
}

std::uint64_t SmoothStreamIndex::chunk_start_ticks(int index) const {
  VODX_ASSERT(index >= 0 &&
                  index < static_cast<int>(chunk_durations.size()),
              "chunk index out of range");
  double start = 0;
  for (int i = 0; i < index; ++i) {
    start += chunk_durations[static_cast<std::size_t>(i)];
  }
  return to_ticks(start);
}

std::string SmoothManifest::serialize() const {
  std::string out;
  std::string ticks;  // unsigned, as the manifest carries them
  const auto ticks_of = [&ticks](Seconds seconds) -> const std::string& {
    ticks.clear();
    append_int(ticks, to_ticks(seconds));
    return ticks;
  };
  XmlWriter xml(out);
  xml.open("SmoothStreamingMedia");
  xml.attr("MajorVersion", "2");
  xml.attr("MinorVersion", "0");
  xml.attr("TimeScale", static_cast<std::int64_t>(kSmoothTimescale));
  xml.attr("Duration", ticks_of(duration));
  for (const SmoothStreamIndex& stream : stream_indexes) {
    xml.open("StreamIndex");
    const bool video = stream.type == media::ContentType::kVideo;
    xml.attr("Type", video ? "video" : "audio");
    xml.attr("QualityLevels",
             static_cast<std::int64_t>(stream.quality_levels.size()));
    xml.attr("Chunks",
             static_cast<std::int64_t>(stream.chunk_durations.size()));
    xml.attr("Url", stream.url_template);
    int level = 0;
    for (const SmoothQualityLevel& q : stream.quality_levels) {
      xml.open("QualityLevel");
      xml.attr("Index", level++);
      xml.attr("Bitrate", std::llround(q.bitrate));
      if (q.resolution.width > 0) {
        xml.attr("MaxWidth", q.resolution.width);
        xml.attr("MaxHeight", q.resolution.height);
      }
      xml.close();
    }
    for (Seconds d : stream.chunk_durations) {
      xml.open("c");
      xml.attr("d", ticks_of(d));
      xml.close();
    }
    xml.close();
  }
  xml.close();
  return out;
}

SmoothManifest SmoothManifest::parse(std::string_view text) {
  const XmlDocument document(text);
  const XmlElement& root = document.root();
  if (root.name() != "SmoothStreamingMedia") {
    throw ParseError("root must be SmoothStreamingMedia");
  }
  const double timescale = static_cast<double>(
      parse_int(root.attr("TimeScale").value_or("10000000")));
  SmoothManifest manifest;
  manifest.duration =
      static_cast<double>(parse_int(root.required_attr("Duration"))) /
      timescale;
  for (const XmlElement* index = root.child("StreamIndex"); index != nullptr;
       index = index->next("StreamIndex")) {
    SmoothStreamIndex stream;
    stream.type = index->required_attr("Type") == "audio"
                      ? media::ContentType::kAudio
                      : media::ContentType::kVideo;
    stream.url_template = index->required_attr("Url");
    for (const XmlElement* quality = index->child("QualityLevel");
         quality != nullptr; quality = quality->next("QualityLevel")) {
      SmoothQualityLevel q;
      q.bitrate = static_cast<Bps>(parse_int(quality->required_attr("Bitrate")));
      if (auto w = quality->attr("MaxWidth")) {
        q.resolution.width = static_cast<int>(parse_int(*w));
        q.resolution.height =
            static_cast<int>(parse_int(quality->required_attr("MaxHeight")));
      }
      stream.quality_levels.push_back(q);
    }
    for (const XmlElement* chunk = index->child("c"); chunk != nullptr;
         chunk = chunk->next("c")) {
      stream.chunk_durations.push_back(
          static_cast<double>(parse_int(chunk->required_attr("d"))) /
          timescale);
    }
    manifest.stream_indexes.push_back(std::move(stream));
  }
  return manifest;
}

}  // namespace vodx::manifest
