"""Full-range mod approximation for slot-packed ciphertexts, and what it enables:
value-dimension data packing (BitStack/CrtStack), slot packing
(VecConcat/ImgPair), homomorphic rounding, and additive-share conversion,
all runnable on an exact slot-semantics simulator."""

from .cheb import ChebSeries, cheb_T, clenshaw, eval_clenshaw, map_to_unit
from .fitting import (ModPlan, StepSpec, build_system, fit_modp, fit_step,
                      load_plan, save_plan, solve_min_norm, suggest_delta)
from .hesim import (LevelExhaustedError, OpStats, SimParams, SlotCiphertext,
                    conjugate, decrypt, encrypt, rotate, rotate_batch)
from .packing import (BitStackLayout, ConcatStage, CrtBasis, ImgPairStage,
                      bitstack_pack, bitstack_unpack, crt_pack, crt_unpack,
                      img_pack, img_unpack, load_layout, pipeline_pack,
                      pipeline_unpack, save_layout, unpack_stream, vec_pack, vec_unpack)
from .psev import (PsSchedule, compute_power_basis, eval_plan, eval_plans, eval_ps,
                   plan_schedule)
from .roundshare import (ReconstructNode, ShareSet, build_comp_plan, ceil_he, floor_he,
                         round_he, share_plan, shares_to_ct, shares_to_ct_tree)

__all__ = [name for name in dir() if not name.startswith("_")]
