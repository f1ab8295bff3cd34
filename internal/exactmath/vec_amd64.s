#include "textflag.h"

// Every constant is stored four times, so a 256-bit memory operand reads
// the same value in each lane.
#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(absMask, 0x7fffffffffffffff)
CONST4(ones32, 0x0000000100000001) // int32 lanes of 1
CONST4(half, 0x3fe0000000000000)   // 0.5
CONST4(one, 0x3ff0000000000000)    // 1.0
CONST4(two, 0x4000000000000000)    // 2.0

// The cosine: Go's pure-Go cos (Cephes sin.c).
CONST4(two29, 0x41c0000000000000)      // 2^29, where cos leaves Cody-Waite
CONST4(fourOverPi, 0x3ff45f306dc9c883) // 4/Pi
CONST4(pi4A, 0x3fe921fb40000000)       // Pi/4 split into three parts
CONST4(pi4B, 0x3e64442d00000000)
CONST4(pi4C, 0x3ce8469898cc5170)
CONST4(sin0, 0x3de5d8fd1fd19ccd)       // 1.58962301576546568060e-10
CONST4(sin1, 0xbe5ae5e5a9291f5d)       // -2.50507477628578072866e-8
CONST4(sin2, 0x3ec71de3567d48a1)       // 2.75573136213857245213e-6
CONST4(sin3, 0xbf2a01a019bfdf03)       // -1.98412698295895385996e-4
CONST4(sin4, 0x3f8111111110f7d0)       // 8.33333333332211858878e-3
CONST4(sin5, 0xbfc5555555555548)       // -1.66666666666666307295e-1
CONST4(cos0, 0xbda8fa49a0861a9b)       // -1.13585365213876817300e-11
CONST4(cos1, 0x3e21ee9d7b4e3f05)       // 2.08757008419747316778e-9
CONST4(cos2, 0xbe927e4f7eac4bc6)       // -2.75573141792967388112e-7
CONST4(cos3, 0x3efa01a019c844f5)       // 2.48015872888517045348e-5
CONST4(cos4, 0xbf56c16c16c14f91)       // -1.38888888888730564116e-3
CONST4(cos5, 0x3fa555555555554b)       // 4.16666666666665929218e-2

// The law's guard on x = Over0/over.
CONST4(tiny, 0x20b0000000000000) // 2^-500
CONST4(huge, 0x5f30000000000000) // 2^500

// math.Log: archLog in $GOROOT/src/math/log_amd64.s.
CONST4(mantMask, 0x000fffffffffffff)
CONST4(two52, 0x4330000000000000)  // 2^52: ORed over a small integer, 2^52+i
CONST4(two52k, 0x43300000000003fe) // 2^52 + 1022
CONST4(hsqrt2, 0x3fe6a09e667f3bcd) // Sqrt2/2
CONST4(ln2Hi, 0x3fe62e42fee00000)
CONST4(ln2Lo, 0x3dea39ef35793c76)
CONST4(logL1, 0x3fe5555555555593)
CONST4(logL2, 0x3fd999999997fa04)
CONST4(logL3, 0x3fd2492494229359)
CONST4(logL4, 0x3fcc71c51d8e78af)
CONST4(logL5, 0x3fc7466496cb03de)
CONST4(logL6, 0x3fc39a09d078c69f)
CONST4(logL7, 0x3fc2f112df3e5244)

// math.Exp: archExp's FMA path in $GOROOT/src/math/exp_amd64.s.
CONST4(log2e, 0x3ff71547652b82fe)
CONST4(ln2U, 0x3fe62e42fefa3000)
CONST4(ln2L, 0x3d53de6af278ece6)
CONST4(sixteenth, 0x3fb0000000000000) // 0.0625
CONST4(inv3f, 0x3fc5555555555555)     // 1/3!
CONST4(inv4f, 0x3fa5555555555555)     // 1/4!
CONST4(inv5f, 0x3f81111111111111)     // 1/5!
CONST4(inv6f, 0x3f56c16c16c16c17)     // 1/6!
CONST4(inv7f, 0x3f2a01a01a01a01a)     // 1/7!
CONST4(inv8f, 0x3efa01a01a01a01a)     // 1/8!
CONST4(expBias, 0x00000000000003ff)   // int64 lanes of 1023

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func cosAVX2(dst, src []float64) int
//
// cosScalarInto four lanes at a time, with no FMA: every operation is the
// scalar form's, in its order.
TEXT ·cosAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX

cosLoop:
	CMPQ AX, CX
	JGE  cosDone
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    absMask<>(SB), Y0, Y1 // ax = |x|
	VCMPPD    $0x11, two29<>(SB), Y1, Y2 // ax < 2^29, false for NaN (LT_OQ)
	VMOVMSKPD Y2, DX
	CMPQ      DX, $15
	JNE       cosDone

	// j = int(ax*4/Pi) rounded up to even, y = float64(j). ax*4/Pi < 2^30,
	// so the truncating conversion to int32 cannot overflow.
	VMULPD      fourOverPi<>(SB), Y1, Y2
	VCVTTPD2DQY Y2, X3
	VPAND       ones32<>(SB), X3, X4
	VPADDD      X4, X3, X3
	VCVTDQ2PD   X3, Y4

	// z = ((ax - y*pi4A) - y*pi4B) - y*pi4C, zz = z*z.
	VMULPD pi4A<>(SB), Y4, Y5
	VSUBPD Y5, Y1, Y5
	VMULPD pi4B<>(SB), Y4, Y6
	VSUBPD Y6, Y5, Y5
	VMULPD pi4C<>(SB), Y4, Y6
	VSUBPD Y6, Y5, Y5
	VMULPD Y5, Y5, Y6

	// s = z + z*zz*((((((S0*zz)+S1)*zz+S2)*zz+S3)*zz+S4)*zz+S5)
	VMULPD sin0<>(SB), Y6, Y7
	VADDPD sin1<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD sin2<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD sin3<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD sin4<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD sin5<>(SB), Y7, Y7
	VMULPD Y6, Y5, Y8
	VMULPD Y7, Y8, Y8
	VADDPD Y8, Y5, Y8

	// c = 1.0 - 0.5*zz + zz*zz*((((((C0*zz)+C1)*zz+C2)*zz+C3)*zz+C4)*zz+C5)
	VMULPD  cos0<>(SB), Y6, Y7
	VADDPD  cos1<>(SB), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  cos2<>(SB), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  cos3<>(SB), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  cos4<>(SB), Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  cos5<>(SB), Y7, Y7
	VMULPD  half<>(SB), Y6, Y9
	VMOVUPD one<>(SB), Y10
	VSUBPD  Y9, Y10, Y9
	VMULPD  Y6, Y6, Y10
	VMULPD  Y7, Y10, Y10
	VADDPD  Y10, Y9, Y9

	// Octants 2 and 6 (mod 8) take s: bit 1 of j, shifted to each lane's
	// sign bit, drives the blend. Octants 2 and 4 negate: bit 1 of
	// j ^ j>>1, shifted to the sign bit alone, is XORed in.
	VPMOVZXDQ X3, Y10
	VPSLLQ    $62, Y10, Y11
	VBLENDVPD Y11, Y8, Y9, Y9
	VPSRLQ    $1, Y10, Y11
	VPXOR     Y10, Y11, Y11
	VPSRLQ    $1, Y11, Y11
	VPSLLQ    $63, Y11, Y11
	VXORPD    Y11, Y9, Y9
	VMOVUPD   Y9, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       cosLoop

cosDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func lawAVX2(dst, dvth []float64, over0, minOver, am1, scale float64) int
//
// AlphaLaw.At four lanes at a time: the clamp, archLog, and archExp's FMA
// path, every operation the scalar one in its order.
TEXT ·lawAVX2(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         dvth_base+24(FP), SI
	MOVQ         dvth_len+32(FP), CX
	ANDQ         $-4, CX
	XORQ         AX, AX
	VBROADCASTSD over0+48(FP), Y12
	VBROADCASTSD minOver+56(FP), Y13
	VBROADCASTSD am1+64(FP), Y14
	VBROADCASTSD scale+72(FP), Y15

lawLoop:
	CMPQ AX, CX
	JGE  lawDone

	// over = over0 - dvth; minOver where minOver > over, else over (NaN
	// included): the scalar `if over < minOver`. x = over0 / over.
	VMOVUPD   (SI)(AX*8), Y0
	VSUBPD    Y0, Y12, Y0
	VMAXPD    Y0, Y13, Y0
	VDIVPD    Y0, Y12, Y1
	VCMPPD    $0x1d, tiny<>(SB), Y1, Y2 // x >= 2^-500 (GE_OQ)
	VCMPPD    $0x12, huge<>(SB), Y1, Y3 // x <= 2^500 (LE_OQ)
	VANDPD    Y3, Y2, Y2
	VMOVMSKPD Y2, DX
	CMPQ      DX, $15
	JNE       lawDone

	// Log(x). f1 = frexp fraction in [0.5, 1); k = exponent, converted
	// exactly through 2^52+e.
	VANDPD mantMask<>(SB), Y1, Y2
	VORPD  half<>(SB), Y2, Y2
	VPSRLQ $52, Y1, Y3
	VPOR   two52<>(SB), Y3, Y3
	VSUBPD two52k<>(SB), Y3, Y3

	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }: archLog's CMPSD ..., 5, which
	// includes equality where pure-Go log's `<` does not.
	VCMPPD $0x12, hsqrt2<>(SB), Y2, Y4
	VANDPD one<>(SB), Y4, Y4
	VSUBPD Y4, Y3, Y3
	VADDPD one<>(SB), Y4, Y4
	VMULPD Y4, Y2, Y2

	// f = f1 - 1, s = f / (2 + f), s2 = s*s, s4 = s2*s2.
	VSUBPD one<>(SB), Y2, Y2
	VADDPD two<>(SB), Y2, Y4
	VDIVPD Y4, Y2, Y5
	VMULPD Y5, Y5, Y6
	VMULPD Y6, Y6, Y7

	// t1 = s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y7, Y8
	VADDPD logL5<>(SB), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD logL3<>(SB), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD logL1<>(SB), Y8, Y8
	VMULPD Y8, Y6, Y6

	// t2 = s4 * (L2 + s4*(L4+s4*L6)), R = t1 + t2
	VMULPD logL6<>(SB), Y7, Y8
	VADDPD logL4<>(SB), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD logL2<>(SB), Y8, Y8
	VMULPD Y8, Y7, Y7
	VADDPD Y7, Y6, Y6

	// hfsq = 0.5 * f * f
	// log = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VMULPD half<>(SB), Y2, Y8
	VMULPD Y2, Y8, Y8
	VADDPD Y8, Y6, Y6
	VMULPD Y6, Y5, Y5
	VMULPD ln2Lo<>(SB), Y3, Y9
	VADDPD Y9, Y5, Y5
	VSUBPD Y5, Y8, Y8
	VSUBPD Y2, Y8, Y8
	VMULPD ln2Hi<>(SB), Y3, Y3
	VSUBPD Y8, Y3, Y3

	// Exp(t) for t = (a-1)*log, |t| < 174. k = t*Log2e rounded to nearest
	// even (archExp's CVTSD2SL); r = (t - k*Ln2U - k*Ln2L) / 16, fused.
	VMULPD       Y14, Y3, Y3
	VMULPD       log2e<>(SB), Y3, Y4
	VCVTPD2DQY   Y4, X5
	VCVTDQ2PD    X5, Y4
	VFNMADD231PD ln2U<>(SB), Y4, Y3
	VFNMADD231PD ln2L<>(SB), Y4, Y3
	VMULPD       sixteenth<>(SB), Y3, Y3

	// Taylor series by FMA, then squared four times as e = e*(e+2), the
	// last fused with the +1.
	VMOVUPD     inv8f<>(SB), Y6
	VFMADD213PD inv7f<>(SB), Y3, Y6
	VFMADD213PD inv6f<>(SB), Y3, Y6
	VFMADD213PD inv5f<>(SB), Y3, Y6
	VFMADD213PD inv4f<>(SB), Y3, Y6
	VFMADD213PD inv3f<>(SB), Y3, Y6
	VFMADD213PD half<>(SB), Y3, Y6
	VFMADD213PD one<>(SB), Y3, Y6
	VMULPD      Y6, Y3, Y3
	VADDPD      two<>(SB), Y3, Y6
	VMULPD      Y6, Y3, Y3
	VADDPD      two<>(SB), Y3, Y6
	VMULPD      Y6, Y3, Y3
	VADDPD      two<>(SB), Y3, Y6
	VMULPD      Y6, Y3, Y3
	VADDPD      two<>(SB), Y3, Y6
	VFMADD213PD one<>(SB), Y6, Y3

	// Times 2^k (|k| <= 250, so the exponent stays normal), then x and
	// the scale.
	VPMOVSXDQ X5, Y7
	VPADDQ    expBias<>(SB), Y7, Y7
	VPSLLQ    $52, Y7, Y7
	VMULPD    Y7, Y3, Y3
	VMULPD    Y1, Y3, Y3
	VMULPD    Y15, Y3, Y3
	VMOVUPD   Y3, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       lawLoop

lawDone:
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET
