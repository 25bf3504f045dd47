// The 16-video test set of the paper's Table 1 (names, genres, lengths and
// source datasets reproduced; content is synthesized — see README.md,
// "Substitutions and fidelity").
#pragma once

#include <string>
#include <vector>

#include "media/video.h"

namespace sensei::media {

struct DatasetEntry {
  std::string name;
  Genre genre;
  double duration_s;
  std::string source_dataset;
  std::string description;  // Figure 19 caption
};

class Dataset {
 public:
  // Table 1 metadata.
  static const std::vector<DatasetEntry>& table1();

  // Generates the full 16-video test set.
  static std::vector<SourceVideo> test_set(double chunk_duration_s = 4.0);

  // Generates one video of the test set by name; throws if unknown.
  static SourceVideo by_name(const std::string& name, double chunk_duration_s = 4.0);

  // The 25-second Soccer1 clip of Figure 1 with a hand-authored scene layout:
  // chunks 0-2 normal gameplay, chunk 3 shoot & goal (key moment),
  // chunks 4-5 celebrate & replay. (At 4 s chunks: ~25 s total.)
  static SourceVideo soccer1_clip();

 private:
  static SourceVideo generate_entry(const DatasetEntry& e, double chunk_duration_s);
};

}  // namespace sensei::media
