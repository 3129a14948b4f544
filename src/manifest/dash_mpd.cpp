#include "manifest/dash_mpd.h"

#include <cctype>
#include <cmath>

#include "common/error.h"
#include "common/strings.h"
#include "manifest/xml.h"

namespace vodx::manifest {

namespace {

constexpr std::uint32_t kTimescale = 1000;

/// Run-length encodes durations into SegmentTimeline S@d/@r elements.
void write_timeline(XmlWriter& xml, const std::vector<Seconds>& durations) {
  xml.open("SegmentTimeline");
  std::size_t i = 0;
  while (i < durations.size()) {
    const long long ticks = std::llround(durations[i] * kTimescale);
    std::size_t j = i + 1;
    while (j < durations.size() &&
           std::llround(durations[j] * kTimescale) == ticks) {
      ++j;
    }
    xml.open("S");
    xml.attr("d", ticks);
    if (j - i > 1) xml.attr("r", static_cast<std::int64_t>(j - i - 1));
    xml.close();
    i = j;
  }
  xml.close();
}

std::vector<Seconds> parse_timeline(const XmlElement& parent,
                                    std::uint32_t timescale) {
  const XmlElement* timeline = parent.child("SegmentTimeline");
  if (timeline == nullptr) {
    throw ParseError("<" + std::string(parent.name()) +
                     "> needs SegmentTimeline");
  }
  std::vector<Seconds> durations;
  for (const XmlElement* s = timeline->child("S"); s != nullptr;
       s = s->next("S")) {
    Seconds d = static_cast<double>(parse_int(s->required_attr("d"))) /
                timescale;
    std::int64_t repeat = parse_int(s->attr("r").value_or("0"));
    for (std::int64_t k = 0; k <= repeat; ++k) durations.push_back(d);
  }
  return durations;
}

void write_segment_list(XmlWriter& xml,
                        const std::vector<DashSegmentRef>& segments) {
  xml.open("SegmentList");
  xml.attr("timescale", kTimescale);
  std::vector<Seconds> durations;
  durations.reserve(segments.size());
  for (const DashSegmentRef& seg : segments) durations.push_back(seg.duration);
  write_timeline(xml, durations);
  std::string range;
  for (const DashSegmentRef& seg : segments) {
    range.clear();
    append_int(range, seg.media_range.first);
    range += '-';
    append_int(range, seg.media_range.last);
    xml.open("SegmentURL");
    xml.attr("mediaRange", range);
    xml.close();
  }
  xml.close();
}

void write_segment_template(XmlWriter& xml, const DashRepresentation& rep) {
  xml.open("SegmentTemplate");
  xml.attr("timescale", kTimescale);
  xml.attr("media", rep.media_template);
  xml.attr("startNumber", rep.start_number);
  write_timeline(xml, rep.template_durations);
  xml.close();
}

std::vector<DashSegmentRef> parse_segment_list(const XmlElement& list) {
  const std::uint32_t timescale = static_cast<std::uint32_t>(
      parse_int(list.attr("timescale").value_or("1")));
  std::vector<Seconds> durations = parse_timeline(list, timescale);
  std::vector<DashSegmentRef> segments;
  segments.reserve(durations.size());
  std::size_t i = 0;
  for (const XmlElement* url = list.child("SegmentURL"); url != nullptr;
       url = url->next("SegmentURL")) {
    if (i >= durations.size()) {
      throw ParseError("more SegmentURLs than timeline entries");
    }
    DashSegmentRef ref;
    ref.duration = durations[i++];
    ref.media_range = ByteRange::parse(url->required_attr("mediaRange"));
    segments.push_back(ref);
  }
  if (i != durations.size()) {
    throw ParseError("timeline entries do not match SegmentURLs");
  }
  return segments;
}

}  // namespace

void DashRepresentation::template_url(int index, std::string& out) const {
  VODX_ASSERT(!media_template.empty(), "representation has no template");
  constexpr std::string_view kNumber = "$Number$";
  out.clear();
  std::string_view rest = media_template;
  for (std::size_t pos; (pos = rest.find(kNumber)) != std::string_view::npos;
       rest.remove_prefix(pos + kNumber.size())) {
    out += rest.substr(0, pos);
    append_int(out, start_number + index);
  }
  out += rest;
}

std::string iso8601_duration(Seconds seconds) {
  VODX_ASSERT(seconds >= 0, "negative duration");
  long long whole = static_cast<long long>(seconds);
  double frac = seconds - static_cast<double>(whole);
  long long hours = whole / 3600;
  long long minutes = (whole % 3600) / 60;
  double secs = static_cast<double>(whole % 60) + frac;
  std::string out = "PT";
  if (hours > 0) out += format("%lldH", hours);
  if (minutes > 0) out += format("%lldM", minutes);
  out += format("%.3fS", secs);
  return out;
}

Seconds parse_iso8601_duration(std::string_view text) {
  if (!starts_with(text, "PT")) {
    throw ParseError("duration must start with PT: " + std::string(text));
  }
  text.remove_prefix(2);
  Seconds total = 0;
  std::string number;
  for (char c : text) {
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      number += c;
    } else {
      if (number.empty()) throw ParseError("malformed ISO 8601 duration");
      double value = parse_double(number);
      switch (c) {
        case 'H': total += value * 3600; break;
        case 'M': total += value * 60; break;
        case 'S': total += value; break;
        default:
          throw ParseError("unknown duration designator");
      }
      number.clear();
    }
  }
  if (!number.empty()) throw ParseError("trailing digits in duration");
  return total;
}

std::string DashMpd::serialize() const {
  std::string out;
  XmlWriter xml(out);
  xml.open("MPD");
  xml.attr("xmlns", "urn:mpeg:dash:schema:mpd:2011");
  xml.attr("type", "static");
  xml.attr("mediaPresentationDuration",
           iso8601_duration(media_presentation_duration));
  xml.attr("profiles", "urn:mpeg:dash:profile:isoff-on-demand:2011");
  xml.open("Period");
  for (const DashAdaptationSet& set : adaptation_sets) {
    xml.open("AdaptationSet");
    const bool video = set.content_type == media::ContentType::kVideo;
    xml.attr("contentType", video ? "video" : "audio");
    xml.attr("mimeType", video ? "video/mp4" : "audio/mp4");
    for (const DashRepresentation& rep : set.representations) {
      xml.open("Representation");
      xml.attr("id", rep.id);
      xml.attr("bandwidth", std::llround(rep.bandwidth));
      if (rep.resolution.width > 0) {
        xml.attr("width", rep.resolution.width);
        xml.attr("height", rep.resolution.height);
      }
      if (!rep.base_url.empty()) {
        xml.open("BaseURL");
        xml.text(rep.base_url);
        xml.close();
      }
      if (rep.index_range) {
        xml.open("SegmentBase");
        xml.attr("indexRange", rep.index_range->to_string());
        xml.close();
      } else if (!rep.media_template.empty()) {
        write_segment_template(xml, rep);
      } else {
        write_segment_list(xml, rep.segments);
      }
      xml.close();
    }
    xml.close();
  }
  xml.close();
  xml.close();
  return out;
}

DashMpd DashMpd::parse(std::string_view text) {
  const XmlDocument document(text);
  const XmlElement& root = document.root();
  if (root.name() != "MPD") throw ParseError("root element must be MPD");
  DashMpd mpd;
  mpd.media_presentation_duration =
      parse_iso8601_duration(root.required_attr("mediaPresentationDuration"));
  const XmlElement* period = root.child("Period");
  if (period == nullptr) throw ParseError("MPD needs a Period");
  for (const XmlElement* set_node = period->child("AdaptationSet");
       set_node != nullptr; set_node = set_node->next("AdaptationSet")) {
    DashAdaptationSet set;
    set.content_type = set_node->attr("contentType").value_or("video") == "audio"
                           ? media::ContentType::kAudio
                           : media::ContentType::kVideo;
    for (const XmlElement* rep_node = set_node->child("Representation");
         rep_node != nullptr; rep_node = rep_node->next("Representation")) {
      DashRepresentation rep;
      rep.id = rep_node->required_attr("id");
      rep.bandwidth = static_cast<Bps>(parse_int(rep_node->required_attr("bandwidth")));
      if (auto w = rep_node->attr("width")) {
        rep.resolution.width = static_cast<int>(parse_int(*w));
        rep.resolution.height =
            static_cast<int>(parse_int(rep_node->required_attr("height")));
      }
      if (const XmlElement* base_url = rep_node->child("BaseURL")) {
        rep.base_url = base_url->text();
      }
      if (const XmlElement* segment_base = rep_node->child("SegmentBase")) {
        if (rep.base_url.empty()) {
          throw ParseError("SegmentBase needs a BaseURL");
        }
        rep.index_range =
            ByteRange::parse(segment_base->required_attr("indexRange"));
      } else if (const XmlElement* list = rep_node->child("SegmentList")) {
        if (rep.base_url.empty()) {
          throw ParseError("SegmentList needs a BaseURL");
        }
        rep.segments = parse_segment_list(*list);
      } else if (const XmlElement* tmpl = rep_node->child("SegmentTemplate")) {
        rep.media_template = tmpl->required_attr("media");
        rep.start_number = static_cast<int>(
            parse_int(tmpl->attr("startNumber").value_or("1")));
        const auto timescale = static_cast<std::uint32_t>(
            parse_int(tmpl->attr("timescale").value_or("1")));
        rep.template_durations = parse_timeline(*tmpl, timescale);
      } else {
        throw ParseError(
            "Representation needs SegmentBase, SegmentList or "
            "SegmentTemplate");
      }
      set.representations.push_back(std::move(rep));
    }
    mpd.adaptation_sets.push_back(std::move(set));
  }
  return mpd;
}

}  // namespace vodx::manifest
