"""Probability-map guided recurrent segmentation of volumetric images."""

__version__ = "0.1.0"

from .checkpoint import Checkpoint, checkpoint_digest, load_checkpoint, save_checkpoint
from .errors import (ConfigError, DataError, MagicError, NumericalError,
                     PbrsegError, SchemaError, TruncationError,
                     UndefinedMetricError)
from .hybrid import (HybridStack, InferResult, SweepConfig, binarize,
                     build_hybrid, infer_pbr, sweep, update_map)
from .phantom import PhantomSpec, gen_dataset, gen_phantom
from .preprocess import augment, preprocess
from .pvol import (MaskVolume, ProbVolume, Volume, read_pvol, read_pvol_file,
                   write_pvol, write_pvol_file)
from .unet import UNet, UNetConfig, architecture_specs, build_unet
from .views import estimate_initial, view_slices
