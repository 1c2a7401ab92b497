/**
 * @file
 * MRL-64: the instruction set of the simulated machine.
 *
 * MRL-64 is a 64-bit, little-endian, CISC-lite ISA designed to stand in
 * for x86-64 in the MeRLiN reproduction (see DESIGN.md).  Its load-op /
 * read-modify-write / push-pop / call composites expand to multiple
 * micro-ops, so a static instruction is identified by its RIP while the
 * micro-op within it is identified by a uPC — exactly the pair MeRLiN's
 * grouping step keys on.
 *
 * Encoding: fixed 8 bytes per instruction.
 *   byte 0      opcode
 *   byte 1      rd
 *   byte 2      rs1
 *   byte 3      rs2
 *   bytes 4..7  imm32 (signed, little-endian)
 *
 * 32 general-purpose integer registers r0..r31.  Conventions (assembler
 * aliases): a0-a5 = r0-r5 (arguments/results), t0-t9 = r6-r15 (caller
 * saved), s0-s9 = r16-r25 (callee saved), gp = r26, tp = r27, fp = r28,
 * sp = r29 (implicit in PUSH/POP), at = r30 (assembler temp),
 * ra = r31 (link register, written by CALL/CALLR).
 */

#ifndef MERLIN_ISA_ISA_HH
#define MERLIN_ISA_ISA_HH

#include <cstdint>
#include <optional>
#include <string>

#include "base/types.hh"

namespace merlin::isa
{

/** Number of programmer-visible integer registers. */
constexpr unsigned NUM_ARCH_REGS = 32;

/** Micro-architectural temporaries used inside macro-op expansions. */
constexpr unsigned REG_TMP0 = 32;
constexpr unsigned REG_TMP1 = 33;

/** Total renameable architectural namespace (arch regs + temps). */
constexpr unsigned NUM_RENAMEABLE_REGS = 34;

/** Sentinel for "no register operand". */
constexpr unsigned REG_NONE = 255;

/** Stack pointer / link register conventions. */
constexpr unsigned REG_SP = 29;
constexpr unsigned REG_RA = 31;

/** Size of one encoded instruction in bytes. */
constexpr unsigned INSN_BYTES = 8;

/** Macro-instruction opcodes. */
enum class Opcode : std::uint8_t
{
    NOP = 0,

    // Register-register ALU: rd = rs1 op rs2.
    ADD, SUB, AND, OR, XOR, SHL, SHR, SRA,
    MUL, MULH, DIV, REM, DIVU, REMU, SLT, SLTU,

    // Register-immediate ALU: rd = rs1 op imm.
    ADDI, ANDI, ORI, XORI, SHLI, SHRI, SRAI, SLTI,

    MOVI,   ///< rd = sign_extend(imm32)
    MOVHI,  ///< rd = (imm32 << 32) | (rd & 0xffffffff)

    // Loads: rd = mem[rs1 + imm].
    LDB, LDBU, LDH, LDHU, LDW, LDWU, LDD,

    // Stores: mem[rs1 + imm] = rs2.
    STB, STH, STW, STD,

    // CISC composites (multi-uop; see uops.hh).
    LDADD,   ///< rd += mem[rs1 + imm]                      (2 uops)
    MEMADD,  ///< mem[rs1 + imm] += rs2                     (3 uops)
    PUSH,    ///< sp -= 8; mem[sp] = rs2                    (2 uops)
    POP,     ///< rd = mem[sp]; sp += 8                     (2 uops)

    // Control flow.  Branch/jump targets are absolute imm32 addresses.
    BEQ, BNE, BLT, BGE, BLTU, BGEU,  ///< if (rs1 cond rs2) pc = imm
    JMP,    ///< pc = imm
    JR,     ///< pc = rs1  (JR ra is predicted as a return)
    CALL,   ///< ra = pc + 8; pc = imm                      (2 uops)
    CALLR,  ///< ra = pc + 8; pc = rs1                      (3 uops)

    // System.
    OUTB,    ///< append low byte of rs2 to the output stream
    OUTD,    ///< append rs2 (8 bytes LE) to the output stream
    TRAPNZ,  ///< if rs1 != 0 raise DetectedError (a software check)
    HALT,    ///< terminate with exit code imm

    NUM_OPCODES
};

/** Decoded form of one 8-byte macro instruction. */
struct Instruction
{
    Opcode op = Opcode::NOP;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::int32_t imm = 0;
};

/** Encode an instruction into its 8-byte form. */
std::uint64_t encode(const Instruction &insn);

/**
 * Decode 8 raw bytes.  Returns std::nullopt for an invalid opcode or
 * register field — the fetch path turns that into an illegal-instruction
 * trap (the core decodes each text word once, see uarch/core.hh).
 */
std::optional<Instruction> decode(std::uint64_t raw);

/** Mnemonic for an opcode ("add", "ld.w", ...). */
const char *opcodeName(Opcode op);

/** Human-readable disassembly of one instruction. */
std::string disassemble(const Instruction &insn);

/** True for conditional branches (BEQ..BGEU). */
bool isCondBranch(Opcode op);

/** True for any control-transfer macro-op. */
bool isControlFlow(Opcode op);

/** True if the macro-op reads or writes memory. */
bool isMemOp(Opcode op);

} // namespace merlin::isa

#endif // MERLIN_ISA_ISA_HH
