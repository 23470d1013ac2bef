"""Binary neural network inference engine with an 8-bit saturating data flow.

Submodules:

* ``bitcore``: bit-packed tensors: packing, unpacking and pad-bit checks
* ``binconv``: binary direct convolution (exact 32-bit and clipped 8-bit)
  and the dense +-1 oracle
* ``bnquant``: batch-norm math, threshold reduction, fixed-point quantization
* ``netgraph``: composable blocks, model execution, model file format
* ``trainkit``: desk-scale two-stage training of clipped binary networks
* ``benchcli``: latency benchmark, model conversion and validation CLI
"""

__version__ = "0.1.0"
