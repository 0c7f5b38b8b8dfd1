"""speechcurate: deterministic speech-corpus curation for TTS training."""

from .audio import (
    AudioBuffer,
    PcmFile,
    TrimResult,
    load_pcm,
    mixdown,
    open_pcm,
    resample,
    save_pcm,
    trim_silence,
    write_kept,
)
from .bandwidth import (
    BandwidthEstimate,
    PowerSpectrum,
    chapter_bandwidth,
    estimate_bandwidth,
    mean_power_spectrum,
)
from .curation import (
    SpeakerCountRecord,
    SplitPlan,
    Triplet,
    apply_speaker_counts,
    build_subset,
    build_triplets,
    corpus_stats,
    sample_eval_splits,
)
from .manifest import (
    ChapterRecord,
    SubsetSpec,
    UtteranceRecord,
    read_chapters,
    read_manifest,
    write_manifest,
)
from .segmentation import (
    AlignmentToken,
    Pause,
    apply_split,
    choose_split,
    find_candidate_pauses,
)
from .textproc import (
    EditStats,
    NormalizationRules,
    TranscriptMatch,
    clean_formatting,
    edit_stats,
    match_transcript,
    normalize_spoken,
    passes_cer_gate,
    strip_pc,
    strip_pc_map,
)

__version__ = "0.1.0"
