#include "src/speaker/playback.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace espk {

void OutputRecorder::Play(SimTime start, PcmBlock block, float gain) {
  if (block->empty()) {
    return;
  }
  segments_.push_back(Segment{start, std::move(block), gain});
}

void OutputRecorder::Play(SimTime start, std::vector<float> samples,
                          float gain) {
  Play(start, std::make_shared<const std::vector<float>>(std::move(samples)),
       gain);
}

std::vector<float> OutputRecorder::Render(SimTime from,
                                          SimDuration duration) const {
  const int64_t frames = DurationToFrames(duration, sample_rate_);
  std::vector<float> out(static_cast<size_t>(frames * channels_), 0.0f);
  for (const Segment& seg : segments_) {
    int64_t seg_start_frame =
        DurationToFrames(seg.start - from, sample_rate_);
    const auto seg_frames =
        static_cast<int64_t>(seg.block->size()) / channels_;
    for (int64_t f = 0; f < seg_frames; ++f) {
      int64_t out_frame = seg_start_frame + f;
      if (out_frame < 0 || out_frame >= frames) {
        continue;
      }
      for (int c = 0; c < channels_; ++c) {
        out[static_cast<size_t>(out_frame * channels_ + c)] =
            seg.sample(static_cast<size_t>(f * channels_ + c));
      }
    }
  }
  return out;
}

SimTime OutputRecorder::last_end() const {
  if (segments_.empty()) {
    return -1;
  }
  const Segment& last = segments_.back();
  return last.start + last.duration(sample_rate_, channels_);
}

int OutputRecorder::CountGaps(SimDuration threshold) const {
  int gaps = 0;
  for (size_t i = 1; i < segments_.size(); ++i) {
    SimTime prev_end = segments_[i - 1].start +
                       segments_[i - 1].duration(sample_rate_, channels_);
    if (segments_[i].start - prev_end > threshold) {
      ++gaps;
    }
  }
  return gaps;
}

SimDuration OutputRecorder::TotalGapTime() const {
  SimDuration total = 0;
  for (size_t i = 1; i < segments_.size(); ++i) {
    SimTime prev_end = segments_[i - 1].start +
                       segments_[i - 1].duration(sample_rate_, channels_);
    if (segments_[i].start > prev_end) {
      total += segments_[i].start - prev_end;
    }
  }
  return total;
}

double OutputRecorder::RecentRms(SimTime now, SimDuration window) const {
  SimTime from = now - window;
  double acc = 0.0;
  int64_t count = 0;
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    SimTime seg_end = it->start + it->duration(sample_rate_, channels_);
    if (seg_end <= from) {
      break;  // Segments are time-ordered; nothing older can overlap.
    }
    if (it->start >= now) {
      continue;
    }
    for (size_t i = 0; i < it->block->size(); ++i) {
      const float s = it->sample(i);
      acc += static_cast<double>(s) * s;
      ++count;
    }
  }
  return count > 0 ? std::sqrt(acc / static_cast<double>(count)) : 0.0;
}

}  // namespace espk
