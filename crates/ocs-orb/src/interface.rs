//! The [`declare_interface!`] macro: this repository's stand-in for the
//! paper's IDL compiler. One declaration produces the server-side trait,
//! the client proxy and the dispatch adapter — the same three artifacts
//! the paper's developers got from `idl` (§9.1 steps 1–2).

/// Declares a remote interface and generates its stubs.
///
/// ```text
/// declare_interface! {
///     pub interface Name [NameClient, NameServant]: "type.string" {
///         <method-id> => fn method(&self, arg: Ty, ...) -> Result<Ok, Err>;
///         ...
///     }
/// }
/// ```
///
/// Generates:
///
/// * `pub trait Name: Send + Sync` — implemented by the service; every
///   method receives the authenticated [`Caller`](crate::Caller) first,
///   and may take the request's reply from it to answer later
///   ([`Caller::reply_later`](crate::Caller::reply_later), typed
///   `Result<Ok, Err>`). A provided `runs_inline(method)` (default
///   `false`) is where the service says which methods never wait for
///   another message.
/// * `pub struct NameClient` — the proxy; same methods minus the caller,
///   returning `Result<Ok, Err>` where transport failures are folded into
///   `Err` via [`RpcFault`](crate::RpcFault).
/// * `pub struct NameServant<T: Name>` — adapter implementing
///   [`Servant`](crate::Servant) for export on an [`Orb`](crate::Orb).
///
/// Every argument and result type must implement
/// [`Wire`]($crate::ocs_wire::Wire); every error type must implement `Wire` and
/// [`RpcFault`](crate::RpcFault).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ocs_orb::{declare_interface, impl_rpc_fault, Caller, OrbError};
/// use ocs_wire::impl_wire_enum;
///
/// #[derive(Debug, PartialEq)]
/// pub enum EchoError { Comm { err: OrbError } }
/// impl_wire_enum!(EchoError { 0 => Comm { err } });
/// impl_rpc_fault!(EchoError);
///
/// declare_interface! {
///     pub interface Echo [EchoClient, EchoServant]: "test.echo" {
///         1 => fn echo(&self, msg: String) -> Result<String, EchoError>;
///     }
/// }
///
/// struct Impl;
/// impl Echo for Impl {
///     fn echo(&self, _caller: &Caller, msg: String) -> Result<String, EchoError> {
///         Ok(msg)
///     }
/// }
/// ```
#[macro_export]
macro_rules! declare_interface {
    (
        $(#[$imeta:meta])*
        pub interface $iface:ident [$client:ident, $servant:ident]: $tyname:literal {
            $(
                $(#[$mmeta:meta])*
                $mid:literal => fn $method:ident(&self $(, $arg:ident : $aty:ty)* $(,)?) -> Result<$ok:ty, $err:ty>;
            )*
        }
    ) => {
        $(#[$imeta])*
        pub trait $iface: Send + Sync {
            $(
                $(#[$mmeta])*
                fn $method(&self, caller: &$crate::Caller $(, $arg: $aty)*) -> Result<$ok, $err>;
            )*

            /// Whether `method` (a wire id) never waits for another
            /// message, so the runtime may run it where it arrives (see
            /// `ocs_orb::Servant::runs_inline` for the promise).
            fn runs_inline(&self, method: u32) -> bool {
                let _ = method;
                false
            }
        }

        #[doc = concat!("Client proxy for the `", $tyname, "` interface.")]
        #[derive(Clone)]
        pub struct $client {
            ctx: $crate::ClientCtx,
            target: $crate::ObjRef,
        }

        impl $client {
            /// The interface's type identifier.
            pub const TYPE_ID: u32 = $crate::ocs_wire::type_id_of($tyname);

            /// The interface's type name string.
            pub const INTERFACE: &'static str = $tyname;

            /// Attaches a proxy to a reference, checking its type id.
            pub fn attach(
                ctx: $crate::ClientCtx,
                target: $crate::ObjRef,
            ) -> Result<Self, $crate::OrbError> {
                if target.type_id != Self::TYPE_ID {
                    return Err($crate::OrbError::WrongType);
                }
                Ok($client { ctx, target })
            }

            /// The bound object reference.
            pub fn target(&self) -> $crate::ObjRef {
                self.target
            }

            /// The client context this proxy invokes through.
            pub fn ctx(&self) -> &$crate::ClientCtx {
                &self.ctx
            }

            $(
                $(#[$mmeta])*
                pub fn $method(&self $(, $arg: $aty)*) -> Result<$ok, $err> {
                    #[allow(unused_mut)]
                    let mut e = self.ctx.encoder();
                    $( $crate::ocs_wire::Wire::encode_into(&$arg, &mut e); )*
                    match self.ctx.call_named(
                        &self.target,
                        $mid,
                        e.finish(),
                        concat!($tyname, ".", stringify!($method)),
                    ) {
                        Ok(body) => {
                            match <Result<$ok, $err> as $crate::ocs_wire::Wire>::from_bytes(&body) {
                                Ok(r) => r,
                                Err(we) => Err(<$err as $crate::RpcFault>::from_orb(
                                    $crate::OrbError::Decode { what: we.to_string() },
                                )),
                            }
                        }
                        Err(orb) => Err(<$err as $crate::RpcFault>::from_orb(orb)),
                    }
                }
            )*
        }

        impl $crate::Proxy for $client {
            const TYPE_ID: u32 = $crate::ocs_wire::type_id_of($tyname);

            fn bind_ref(
                ctx: $crate::ClientCtx,
                target: $crate::ObjRef,
            ) -> Result<Self, $crate::OrbError> {
                Self::attach(ctx, target)
            }

            fn target_ref(&self) -> $crate::ObjRef {
                self.target
            }
        }

        #[doc = concat!("Dispatch adapter exporting a `", stringify!($iface), "` implementation.")]
        pub struct $servant<T: ?Sized>(pub std::sync::Arc<T>);

        impl<T: $iface + ?Sized + 'static> $crate::Servant for $servant<T> {
            fn type_id(&self) -> u32 {
                $crate::ocs_wire::type_id_of($tyname)
            }

            fn type_name(&self) -> &'static str {
                $tyname
            }

            fn method_name(&self, method: u32) -> &'static str {
                match method {
                    $( $mid => stringify!($method), )*
                    _ => "?",
                }
            }

            fn runs_inline(&self, method: u32) -> bool {
                <T as $iface>::runs_inline(&self.0, method)
            }

            fn dispatch(
                &self,
                caller: &$crate::Caller,
                method: u32,
                args: &[u8],
            ) -> Result<$crate::bytes::Bytes, $crate::OrbError> {
                match method {
                    $(
                        $mid => {
                            #[allow(unused_mut)]
                            let mut d = $crate::ocs_wire::Decoder::new(args);
                            $(
                                let $arg = <$aty as $crate::ocs_wire::Wire>::decode_from(&mut d)
                                    .map_err(|e| $crate::OrbError::Decode {
                                        what: e.to_string(),
                                    })?;
                            )*
                            d.expect_end().map_err(|e| $crate::OrbError::Decode {
                                what: e.to_string(),
                            })?;
                            let r: Result<$ok, $err> = self.0.$method(caller $(, $arg)*);
                            if caller.replies_later() {
                                return Ok($crate::bytes::Bytes::new()); // Not sent.
                            }
                            let mut e = caller.encoder();
                            $crate::ocs_wire::Wire::encode_into(&r, &mut e);
                            Ok(e.finish())
                        }
                    )*
                    _ => Err($crate::OrbError::UnknownMethod),
                }
            }
        }
    };
}
