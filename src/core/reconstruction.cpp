#include "core/reconstruction.h"

#include <algorithm>

#include "common/trace.h"
#include "core/streaming.h"

namespace bb::core {

Reconstructor::Reconstructor(const VbReference& reference,
                             segmentation::PersonSegmenter& segmenter,
                             const ReconstructionOptions& opts)
    : reference_(reference), segmenter_(segmenter), opts_(opts) {}

ReconstructionResult Reconstructor::Run(const video::VideoStream& call) {
  const trace::ScopedTimer run_timer("reconstruct.run");
  // Window = call length, so the single flush shards the frame range exactly
  // like the pre-streaming frame loop.
  StreamingOptions sopts;
  sopts.window_frames = std::max(1, call.frame_count());
  sopts.recon = opts_;
  StreamingReconstructor streaming(reference_, segmenter_, sopts);
  video::VideoStreamSource source(call);
  // An in-memory source never yields a bad pull and no budget/checkpoint is
  // configured; the one failure left, a mask-store spill error, throws from
  // value().
  return streaming.Run(source).value();
}

}  // namespace bb::core
