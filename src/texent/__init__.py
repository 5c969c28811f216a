"""texent: texture analysis with a Gaussian-gain non-extensive entropy.

The package computes an entropy over gray-level co-occurrence probabilities
whose information gain is exp(-p**2), together with its conditional, joint,
relative and normalized variants; comparison entropies (Shannon, Renyi,
Tsallis, exponential-gain); polar interaction maps; and a small texture
classification pipeline exposed through the ``texent`` command.
"""

from .classifier import (
    NEAREST_CENTROID,
    ONE_NN,
    EvalReport,
    TrainedModel,
    classify,
    cross_validate,
    evaluate,
    repeated_cross_validate,
    report_csv,
    train,
)
from .dataset import (
    FEATURE_ANGLES,
    LabeledFeatureSet,
    Record,
    SplitMix64,
    SplitSpec,
    build_feature_set,
    build_feature_sets,
    extract_feature,
    load_labeled_images,
    load_pgm,
    read_feature_csv,
    read_pgm,
    save_pgm,
    split,
    tile,
    write_feature_csv,
    write_pgm,
)
from .errors import (
    DegenerateNormalizationError,
    DegenerateVarianceError,
    DomainError,
    EmptyGlcmError,
    PgmError,
    TexentError,
)
from .fbim import CORRELATION, Fbim, compute_fbim, fbim_to_csv, fbim_to_image
from .glcm import (
    ANGLES,
    Glcm,
    GrayImage,
    SpacingVector,
    compute_glcm,
    correlation,
    glcm_entropy,
    glcp,
    offset_of,
)
from .measures import (
    H_MIN,
    MEASURE_KINDS,
    PROB_SUM_TOL,
    EntropyMeasure,
    JointDist,
    ProbDist,
    apply_measure,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    entropy,
    entropy_bounds,
    info_gain,
    joint_entropy,
    normalized_entropy,
    pal_pal,
    relative_entropy,
    renyi,
    shannon,
    tsallis,
)

__version__ = "0.1.0"
