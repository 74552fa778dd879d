#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func signaturesAVX(planes []float64, v Vector, sigs []uint32, bits int)
//
// SI walks planes, one 128-byte row per dimension and table; BX walks v;
// R8 walks sigs. Y0-Y3 hold lanes 0-3, 4-7, 8-11 and 12-15 of a table's
// sums, Y4 the broadcast v[d] and Y7 zero.
TEXT ·signaturesAVX(SB), NOSPLIT, $0-80
	MOVQ planes_base+0(FP), SI
	MOVQ v_base+24(FP), DI
	MOVQ v_len+32(FP), DX
	MOVQ sigs_base+48(FP), R8
	MOVQ sigs_len+56(FP), R9
	MOVQ bits+72(FP), CX
	MOVL $1, R10
	SHLL CX, R10
	DECL R10                 // R10 = 1<<bits - 1, the signature mask
	TESTQ R9, R9
	JZ   done
	VXORPD Y7, Y7, Y7

table:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ DI, BX
	MOVQ DX, R11

dim:
	// Each product is rounded before it is added: no FMA.
	VBROADCASTSD (BX), Y4
	VMULPD (SI), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(SI), Y4, Y5
	VADDPD Y5, Y1, Y1
	VMULPD 64(SI), Y4, Y5
	VADDPD Y5, Y2, Y2
	VMULPD 96(SI), Y4, Y5
	VADDPD Y5, Y3, Y3
	ADDQ $128, SI
	ADDQ $8, BX
	DECQ R11
	JNZ  dim

	// Predicate 0x1d is GE_OQ: sum ≥ 0, false for NaN, true for -0.
	VCMPPD    $0x1d, Y7, Y0, Y0
	VMOVMSKPD Y0, AX
	VCMPPD    $0x1d, Y7, Y1, Y1
	VMOVMSKPD Y1, R12
	SHLL      $4, R12
	ORL       R12, AX
	VCMPPD    $0x1d, Y7, Y2, Y2
	VMOVMSKPD Y2, R12
	SHLL      $8, R12
	ORL       R12, AX
	VCMPPD    $0x1d, Y7, Y3, Y3
	VMOVMSKPD Y3, R12
	SHLL      $12, R12
	ORL       R12, AX
	ANDL      R10, AX
	MOVL      AX, (R8)
	ADDQ      $4, R8
	DECQ      R9
	JNZ       table
	VZEROUPPER

done:
	RET
