// Refcounted immutable byte payload for zero-copy messaging.
//
// Shared_payload wraps a buffer behind an intrusive refcount, so a message
// handed on — a broadcast entry every recipient reads, a relay, a section a
// replica parks across pulses — aliases one allocation instead of copying
// its bytes. The bytes are immutable through a shared handle, which is what
// makes concurrent readers (the multi-threaded pulse executor) safe without
// locks, and the handle is one pointer wide.
//
// Two writers exist. Fault injection garbles through `unique()`, which is
// copy-on-write: it clones the buffer iff another handle still aliases it,
// so garbling one recipient's delivery can never leak into another
// recipient's copy. A minting owner refills a buffer it keeps for reuse
// through the same call once `use_count()` reads 1 — every other holder
// has released it, and the acquire load orders their reads before the
// refill.
#ifndef GA_COMMON_SHARED_PAYLOAD_H
#define GA_COMMON_SHARED_PAYLOAD_H

#include <atomic>
#include <cstddef>
#include <utility>

#include "common/bytes.h"

namespace ga::common {

class Shared_payload {
public:
    /// Empty payload (no allocation until bytes are attached).
    Shared_payload() = default;

    /// Wrap `bytes` (implicit, so `send(to, encode(...))` keeps working).
    Shared_payload(Bytes bytes) // NOLINT(google-explicit-constructor)
        : ctrl_{new Control{{1}, std::move(bytes)}}
    {
    }

    Shared_payload(const Shared_payload& other) noexcept : ctrl_{other.ctrl_}
    {
        if (ctrl_) ctrl_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Shared_payload(Shared_payload&& other) noexcept : ctrl_{other.ctrl_} { other.ctrl_ = nullptr; }
    Shared_payload& operator=(Shared_payload other) noexcept
    {
        std::swap(ctrl_, other.ctrl_);
        return *this;
    }
    ~Shared_payload() { release(); }

    /// Read-only view of the buffer; also the implicit bridge into every
    /// decoder that takes `const Bytes&` (Byte_reader, decode_clock, ...).
    [[nodiscard]] const Bytes& bytes() const { return ctrl_ ? ctrl_->bytes : empty_bytes(); }
    operator const Bytes&() const { return bytes(); } // NOLINT(google-explicit-constructor)

    [[nodiscard]] std::size_t size() const { return ctrl_ ? ctrl_->bytes.size() : 0; }
    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] const std::uint8_t* data() const { return bytes().data(); }
    [[nodiscard]] auto begin() const { return bytes().begin(); }
    [[nodiscard]] auto end() const { return bytes().end(); }
    [[nodiscard]] const std::uint8_t& operator[](std::size_t i) const { return bytes()[i]; }

    /// Copy-on-write mutable access: clones the buffer iff it is aliased, so
    /// the caller's edits stay invisible to every other holder. (Safe against
    /// concurrent *readers* of other handles; racing another mutator of the
    /// same handle is a bug in the caller, as with any non-const access.)
    [[nodiscard]] Bytes& unique()
    {
        if (!ctrl_) {
            ctrl_ = new Control{{1}, {}};
        } else if (ctrl_->refs.load(std::memory_order_acquire) > 1) {
            auto* clone = new Control{{1}, ctrl_->bytes};
            release();
            ctrl_ = clone;
        }
        return ctrl_->bytes;
    }

    /// True iff both handles alias the same buffer (aliasing tests).
    [[nodiscard]] bool aliases(const Shared_payload& other) const
    {
        return ctrl_ != nullptr && ctrl_ == other.ctrl_;
    }

    /// Holders of this exact buffer (0 for the empty payload). The acquire
    /// load pairs with release(): a caller that reads 1 sees every former
    /// holder's reads of the bytes completed, and may refill the buffer.
    [[nodiscard]] long use_count() const
    {
        return ctrl_ ? ctrl_->refs.load(std::memory_order_acquire) : 0;
    }

    friend bool operator==(const Shared_payload& a, const Shared_payload& b)
    {
        return a.bytes() == b.bytes();
    }

private:
    struct Control {
        std::atomic<long> refs;
        Bytes bytes;
    };
    void release() noexcept
    {
        if (ctrl_ && ctrl_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete ctrl_;
        ctrl_ = nullptr;
    }

    static const Bytes& empty_bytes()
    {
        static const Bytes empty{};
        return empty;
    }

    Control* ctrl_ = nullptr;
};

} // namespace ga::common

#endif // GA_COMMON_SHARED_PAYLOAD_H
