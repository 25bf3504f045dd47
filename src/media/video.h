// Source-video model: a named, genre-tagged sequence of content chunks.
#pragma once

#include <string>
#include <vector>

#include "media/content.h"

namespace sensei::media {

class SourceVideo {
 public:
  SourceVideo() = default;
  SourceVideo(std::string name, Genre genre, std::string source_dataset,
              std::vector<ChunkContent> chunks, double chunk_duration_s = 4.0);

  // Generates a synthetic video of `duration_s` seconds; the content stream is
  // deterministic in `name`.
  static SourceVideo generate(const std::string& name, Genre genre, double duration_s,
                              const std::string& source_dataset = "synthetic",
                              double chunk_duration_s = 4.0);

  const std::string& name() const { return name_; }
  Genre genre() const { return genre_; }
  const std::string& source_dataset() const { return source_dataset_; }
  double chunk_duration_s() const { return chunk_duration_s_; }
  size_t num_chunks() const { return chunks_.size(); }
  double duration_s() const { return chunk_duration_s_ * static_cast<double>(chunks_.size()); }
  const ChunkContent& chunk(size_t i) const { return chunks_.at(i); }
  const std::vector<ChunkContent>& chunks() const { return chunks_; }

  // The hidden per-chunk sensitivity vector (only the ground-truth oracle and
  // evaluation code may peek at this; SENSEI itself must infer it).
  std::vector<double> true_sensitivity() const;

  // Duration rendered as M:SS, as in the paper's Table 1.
  std::string length_string() const;

  // Returns the sub-clip covering chunks [first, first+count).
  SourceVideo clip(size_t first, size_t count, const std::string& clip_name) const;

 private:
  std::string name_;
  Genre genre_ = Genre::kSports;
  std::string source_dataset_;
  double chunk_duration_s_ = 4.0;
  std::vector<ChunkContent> chunks_;
};

}  // namespace sensei::media
