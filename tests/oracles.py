"""Frozen reference values for the test suite.

Every number here was computed offline by an *independent* high-precision
route (mpmath at 22 significant digits): Bessel-J zeros by bisection on a
plain power series, K_0/K_1 by the cosh integral representation, modified
Bessel values by their own series, curve lengths by adaptive quadrature of
the speed, and the disk boundary-operator table by closed-form combinations
I_m(1), K_m(1) with derivatives taken via the three-term recurrences (the
Wronskian I_m K'_m - I'_m K_m = -1/w was checked for every row).  Nothing in
this file is produced by the package under test.
"""

# zeros of J_0
J0_ZERO_1 = 2.4048255576957728
J0_ZERO_2 = 5.5200781102863106
J0_ZERO_1_SQ = 5.7831859629467845
J0_ZERO_2_SQ = 30.471262343662086

# cylinder functions at w = 1
J0_AT_1 = 0.76519768655796655
J1_AT_1 = 0.44005058574493352
Y0_AT_1 = 0.088256964215676958
Y1_AT_1 = -0.78121282130028872

# modified Bessel values
K0_AT_1 = 0.42102443824070833
K1_AT_1 = 0.60190723019723457
I0_AT_1 = 1.2660658777520083
I1_AT_1 = 0.56515910399248503
I0_AT_HALF = 1.0634833707413235

# handy combinations (disk, unit radius, z = -1)
H0_AT_I_IMAG = -0.26803248203398855   # H^(1)_0(i) = -(2i/pi) K_0(1), pure imaginary
I0K0 = 0.53304467495626862            # I_0(1) K_0(1)
INV_I0K0 = 1.8760153641569363
NEG_I1_OVER_I0 = -0.44638996589653451
K1_OVER_K0 = 1.4296253982604018
I0_RATIO_HALF = 0.83999054822456417   # I_0(0.5) / I_0(1)
COTH_1 = 1.3130352854993313

# fundamental-solution point values
E3_ZM1_R1 = 0.02927491576215958       # e^{-1}/(4 pi)
E3_LAPLACE_R2 = 0.039788735772973834  # 1/(8 pi)

# interval-model eigenvalues, c = 0: ((2k-1) pi / 2)^2
HALF_PI_SQ = 2.4674011002723397
THREE_HALF_PI_SQ = 22.206609902451057
FIVE_HALF_PI_SQ = 61.685027506808491

# curve lengths
ELLIPSE_2_1_LENGTH = 9.6884482205476762
KITE_LENGTH = 9.3240226732849593

I1_AT_HALF = 0.25789430539089632
K0_AT_2 = 0.11389387274953344

# Fourier-mode table of the disk boundary operators at z = -1 (unit circle):
# single layer s_m = I_m(1) K_m(1); both transposed-double-layer eigenvalues
# coincide on the disk, k_m = 1/2 - I'_m(1) K_m(1); Weyl maps
# mu_plus_m = -I'_m(1)/I_m(1) (interior), mu_minus_m = K'_m(1)/K_m(1) (exterior).
DISK_MODES_ZM1 = {
    0: (0.5330446749562686, 0.2620542057249419, -0.4463899658965345, -1.429625398260402),
    1: (0.3401733509048675, 0.07811914517992559, -1.24019372387009, -1.699483935593772),
    4: (0.1210694398407496, 0.003714769435556881, -4.099178382399713, -4.160544313231525),
    8: (0.06201007637963873, 0.0004839061287246515, -8.055402009394937, -8.07100934797527),
}

# exterior Steklov limit at kappa = 1e-3: mode 0 still carries the log, modes
# m >= 1 approach -|m|
EXT_STEKLOV_MODE0_K1EM3 = -0.1423747929

# H^(1)_0 and H^(1)_1 in the band |w| ~ 10.5-12, Im w ~ 3-4, as (w, H_0(w), H_1(w)).
# Computed offline with mpmath 1.3.0 at mp.dps = 40 (mpmath.hankel1) and rounded
# to double; the route H_n(w) = (2/pi) i^{-(n+1)} K_n(-iw) through
# mpmath.besselk gave the same doubles at every point.
HANKEL1_BAND = (
    ((10.9+4j),
     (-0.0037400338235972588-0.002063511511414093j),
     (-0.0022442868937660163+0.003715780407919312j)),
    ((11.3+3.5j),
     (-0.004174505188075496-0.0055953906213295915j),
     (-0.005835421556748942+0.004006654990280979j)),
    ((10.6+3.9j),
     (-0.0046870009712377085-0.0009671674447591717j),
     (-0.0011742010420933778+0.004722250996711141j)),
    ((11.3+3.95j),
     (-0.0027076694454170737-0.0034982966154784635j),
     (-0.0036538928830715167+0.0026107369081012615j)),
    ((11.4+3.65j),
     (-0.0030994658614293008-0.005105896635771622j),
     (-0.005295873564324516+0.0029406037520628347j)),
    ((10.6+3.95j),
     (-0.0044567086078986075-0.0009101682780400028j),
     (-0.0011064245274932253+0.004491360988922181j)),
)
